package core

import (
	"errors"
	"fmt"
	"time"

	"grid3/internal/condorg"
	"grid3/internal/dagman"
	"grid3/internal/gram"
	"grid3/internal/gridftp"
	"grid3/internal/health"
	"grid3/internal/obs"
	"grid3/internal/pegasus"
	"grid3/internal/rls"
)

// PlannerFor builds a Pegasus planner wired to this grid's live MDS and
// RLS state for the given VO (archive per ArchiveSiteFor).
func (g *Grid) PlannerFor(voName string, policy pegasus.Policy) *pegasus.Planner {
	p := &pegasus.Planner{
		Sites: func() []pegasus.SiteInfo {
			var out []pegasus.SiteInfo
			for _, e := range g.TopGIIS.Entries() {
				out = append(out, pegasus.FromMDS(e))
			}
			return out
		},
		Locate: func(lfn string) []string {
			return g.RLI.Sites(lfn)
		},
		InputBytes: func(lfn string) int64 {
			for _, pfn := range g.RLI.Sites(lfn) {
				if n, err := g.Nodes[pfn].LRC.Size(lfn); err == nil {
					return n
				}
			}
			return 0
		},
		ArchiveSite: ArchiveSiteFor(voName),
		Policy:      policy,
		Ins:         pegasus.NewInstruments(g.Obs),
	}
	if g.Cfg.EnableRecovery {
		// Plan around degraded sites: any open breaker disqualifies a site
		// from compute placement and replica selection (advisory — the
		// planner falls back to the full set if everything is excluded).
		p.Exclude = func(site string) bool {
			return g.Health.HandleFor(site).Degraded()
		}
	}
	if g.Cfg.EnableReplicaRanking {
		p.RankReplicas = func(_ string, cands []string) string {
			return g.rankReplica(cands)
		}
	}
	return p
}

// rankReplica picks the stage-in source with the least WAN pressure:
// fewest flows holding or waiting for a door, then the smallest fraction
// of link capacity already allocated by the filling pass, then sorted name
// (candidates arrive sorted from the RLI, so ties are deterministic).
func (g *Grid) rankReplica(cands []string) string {
	best := cands[0]
	bestFlows, bestQueued, bestBusy := g.Network.Load(best)
	for _, c := range cands[1:] {
		flows, queued, busy := g.Network.Load(c)
		switch {
		case flows+queued < bestFlows+bestQueued:
		case flows+queued == bestFlows+bestQueued && busy < bestBusy:
		default:
			continue
		}
		best, bestFlows, bestQueued, bestBusy = c, flows, queued, busy
	}
	return best
}

// PublishRLS pushes every site LRC into the RLI (the periodic soft-state
// publication; call after seeding input data).
func (g *Grid) PublishRLS() {
	for _, name := range g.Order {
		g.RLI.Publish(g.Nodes[name].LRC, 24*time.Hour)
	}
}

// SeedFile places a file at a site's storage element and registers it in
// RLS — how LIGO staged its SFT inputs (§4.4).
func (g *Grid) SeedFile(siteName, lfn string, bytes int64) error {
	n, ok := g.Nodes[siteName]
	if !ok {
		return fmt.Errorf("core: no such site %s", siteName)
	}
	if err := n.Site.Disk.Store(lfn, bytes, false); err != nil {
		return err
	}
	if err := n.LRC.Add(lfn, "/data/"+lfn, bytes); err != nil {
		return err
	}
	g.PublishRLS()
	return nil
}

// WorkflowRun couples a concrete DAG to its DAGMan runner.
type WorkflowRun struct {
	DAG    *dagman.DAG
	Runner *dagman.Runner
	// JobSites records where each compute node ran.
	JobSites map[string]string
	// Span is the workflow's root lifecycle span (zero with tracing off);
	// DAG-node and compute-job spans are parented under it.
	Span obs.SpanID
}

// RunWorkflow executes a Pegasus concrete DAG on the grid: compute nodes
// submit through the VO's Condor-G schedd (pinned to the planned site),
// data-movement nodes run GridFTP transfers and storage writes, register
// nodes update RLS. onDone fires when the DAG drains.
func (g *Grid) RunWorkflow(cdag *pegasus.ConcreteDAG, voName, user string, onDone func(dagman.Result)) (*WorkflowRun, error) {
	sch, ok := g.Schedds[voName]
	if !ok {
		return nil, fmt.Errorf("core: no schedd for VO %s", voName)
	}
	d := dagman.New()
	run := &WorkflowRun{DAG: d, JobSites: make(map[string]string)}
	tr := g.Obs.TracerOf()
	run.Span = tr.Begin(obs.KindWorkflow, 0, voName+"-dag", voName, "")

	for _, name := range cdag.Order {
		cj := cdag.Jobs[name]
		node := &dagman.Node{Name: name, Retries: 2}
		switch cj.Type {
		case pegasus.Compute:
			node.Work = g.computeWork(run, cj, sch, voName, user)
		case pegasus.StageIn, pegasus.Transfer, pegasus.StageOut:
			node.Work = g.transferWork(cj, voName, run.Span)
		case pegasus.Register:
			cjob := cj
			node.Work = func(done func(error)) {
				n := g.Nodes[cjob.Site]
				if n == nil {
					done(fmt.Errorf("register: unknown site %s", cjob.Site))
					return
				}
				path := "/data/" + cjob.LFN
				// Re-registration on retry is fine; any other error fails the node.
				if err := n.LRC.Add(cjob.LFN, path, cjob.Bytes); err != nil && !errors.Is(err, rls.ErrDuplicate) {
					done(err)
					return
				}
				g.RLI.Publish(n.LRC, 24*time.Hour)
				done(nil)
			}
		}
		if err := d.Add(node); err != nil {
			return nil, err
		}
	}
	for _, name := range cdag.Order {
		for _, parent := range cdag.Jobs[name].Parents {
			if err := d.AddEdge(parent, name); err != nil {
				return nil, err
			}
		}
	}
	run.Runner = dagman.NewRunner(d)
	run.Runner.MaxJobs = 50 // DAGMan -maxjobs, protects gatekeepers (§6.4)
	run.Runner.Ins = dagman.NewInstruments(g.Obs)
	run.Runner.Parent = run.Span
	if g.Cfg.EnableRecovery && g.Obs != nil {
		// Count node-level recoveries. Per-site exclusion on retried compute
		// nodes happens downstream: the resubmitted GridJob keeps its planned
		// pin, but matchmaking's Exclude hook re-places it if that site's
		// gatekeeper breaker has opened since planning.
		retried := g.Obs.Metrics.Counter("workflow.node.retries")
		run.Runner.OnNodeRetry = func(string, int, error) { retried.Inc() }
	}
	wrapped := func(res dagman.Result) {
		if res.Succeeded() {
			tr.End(run.Span)
		} else {
			tr.Fail(run.Span, fmt.Sprintf("%d failed, %d unrunnable", len(res.Failed), len(res.Unrunnable)))
		}
		if onDone != nil {
			onDone(res)
		}
	}
	if err := run.Runner.Run(wrapped); err != nil {
		return nil, err
	}
	return run, nil
}

// computeWork wraps a planned compute job as a DAGMan payload.
func (g *Grid) computeWork(run *WorkflowRun, cj *pegasus.ConcreteJob, sch *condorg.Schedd, voName, user string) dagman.Work {
	return func(done func(error)) {
		runtime := cj.TR.MeanRuntime
		if runtime <= 0 {
			runtime = time.Hour
		}
		runtime = g.RNG.Jitter(runtime, 0.3)
		walltime := cj.TR.Walltime
		if walltime <= 0 || walltime < runtime {
			walltime = runtime * 2
		}
		g.seq++
		job := &condorg.GridJob{
			ID:         fmt.Sprintf("wf-%s-%08d", cj.Name, g.seq),
			Span:       run.Span,
			TargetSite: cj.Site,
			MaxRetries: 1,
			Spec: gram.Spec{
				Subject:       user,
				VO:            voName,
				Executable:    cj.TR.Name,
				Walltime:      walltime,
				Runtime:       runtime,
				StagingFactor: cj.TR.StagingFactor,
			},
			Owner: condorg.DoneFunc(func(j *condorg.GridJob, err error) {
				run.JobSites[cj.Name] = j.Site
				done(err)
			}),
		}
		if err := sch.Submit(job); err != nil {
			done(err)
		}
	}
}

// transferWork wraps a planned data movement as a DAGMan payload: a
// GridFTP transfer followed by a destination storage write.
func (g *Grid) transferWork(cj *pegasus.ConcreteJob, voName string, parent obs.SpanID) dagman.Work {
	return func(done func(error)) {
		dst := g.Nodes[cj.Site]
		if dst == nil {
			done(fmt.Errorf("transfer: unknown destination %s", cj.Site))
			return
		}
		bytes := cj.Bytes
		if bytes <= 0 {
			bytes = 1 << 20
		}
		store := func() error {
			if dst.Site.Disk.Has(cj.LFN) {
				return nil // idempotent on retries / duplicate staging
			}
			return dst.Site.Disk.Store(cj.LFN, bytes, false)
		}
		if cj.SrcSite == "" || cj.SrcSite == cj.Site {
			done(store())
			return
		}
		// Replica failover (recovery mode): when the planned source dies
		// mid-flight or is unreachable, consult RLS for other sites holding
		// the same LFN and chain onto the next one instead of burning a
		// DAGMan node retry.
		tried := []string{cj.Site, cj.SrcSite}
		var start func(src string)
		settle := func(err error) {
			if err != nil {
				if next, ok := g.alternateReplica(cj.LFN, err, tried); ok {
					tried = append(tried, next)
					if g.healthIns != nil {
						g.healthIns.ReplicaFailovers.Inc()
					}
					start(next)
					return
				}
				done(err)
				return
			}
			done(store())
		}
		start = func(src string) {
			_, err := g.Network.StartTraced(src, cj.Site, bytes, voName, parent, func(_ *gridftp.Transfer, terr error) {
				settle(terr)
			})
			if err != nil {
				settle(err)
			}
		}
		start(cj.SrcSite)
	}
}

// alternateReplica picks the next failover source for an LFN after a
// transfer error: recovery must be on, the error a transient endpoint
// condition, and RLS must know another publisher beyond the already-tried
// sites. Candidates whose GridFTP breaker is open are passed over unless
// every candidate is degraded.
func (g *Grid) alternateReplica(lfn string, err error, tried []string) (string, bool) {
	if !g.Cfg.EnableRecovery || lfn == "" || !gridftp.IsEndpointFailure(err) {
		return "", false
	}
	alts := g.RLI.AlternateSites(lfn, tried...)
	if len(alts) == 0 {
		return "", false
	}
	for _, site := range alts {
		if g.Health.Allow(site, health.GridFTP) {
			return site, true
		}
	}
	return alts[0], true
}
