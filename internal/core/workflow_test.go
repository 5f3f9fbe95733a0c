package core

import (
	"testing"
	"time"

	"grid3/internal/chimera"
	"grid3/internal/dagman"
	"grid3/internal/pegasus"
	"grid3/internal/vo"
)

// ligoish builds a two-step staged workflow catalog.
func ligoish(t *testing.T) *chimera.Catalog {
	t.Helper()
	cat := chimera.NewCatalog()
	if err := cat.AddTR(&chimera.Transformation{
		Name: "search", MeanRuntime: 2 * time.Hour, Walltime: 8 * time.Hour,
		StagingFactor: 4, OutputBytes: 10 << 20, RequiresApp: "ligo-pulsar-2.1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDV(&chimera.Derivation{
		ID: "s1", TR: "search",
		Inputs:  []string{"lfn:sft-1"},
		Outputs: []string{"lfn:cand-1"},
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestSeedFileAndPlanner(t *testing.T) {
	g, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SeedFile("UWMilwaukee_LSC", "lfn:sft-1", 4<<30); err != nil {
		t.Fatal(err)
	}
	if err := g.SeedFile("NoSuchSite", "lfn:x", 1); err == nil {
		t.Fatal("seed at unknown site succeeded")
	}
	sites := g.RLI.Sites("lfn:sft-1")
	if len(sites) != 1 || sites[0] != "UWMilwaukee_LSC" {
		t.Fatalf("RLS sites = %v", sites)
	}
	p := g.PlannerFor(vo.LIGO, pegasus.VOAffinity)
	if got := p.InputBytes("lfn:sft-1"); got != 4<<30 {
		t.Fatalf("InputBytes = %d", got)
	}
	if p.ArchiveSite != "UWMilwaukee_LSC" {
		t.Fatalf("archive = %s", p.ArchiveSite)
	}
	// The planner's MDS view covers every site with apps populated.
	infos := p.Sites()
	if len(infos) != 27 {
		t.Fatalf("site infos = %d", len(infos))
	}
	foundApp := false
	for _, info := range infos {
		if info.Apps["ligo-pulsar-2.1"] {
			foundApp = true
		}
	}
	if !foundApp {
		t.Fatal("no site advertises the LIGO release via MDS")
	}
}

func TestRunWorkflowEndToEnd(t *testing.T) {
	g, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SeedFile("UWMilwaukee_LSC", "lfn:sft-1", 4<<30); err != nil {
		t.Fatal(err)
	}
	cat := ligoish(t)
	abstract, err := cat.Plan("lfn:cand-1")
	if err != nil {
		t.Fatal(err)
	}
	concrete, err := g.PlannerFor(vo.LIGO, pegasus.LoadBalanced).Plan(abstract, vo.LIGO)
	if err != nil {
		t.Fatal(err)
	}
	var result dagman.Result
	wf, err := g.RunWorkflow(concrete, vo.LIGO,
		"/DC=org/DC=doegrids/OU=People/CN=ligo user 00",
		func(r dagman.Result) { result = r })
	if err != nil {
		t.Fatal(err)
	}
	g.Eng.RunUntil(48 * time.Hour)
	if !result.Succeeded() {
		t.Fatalf("workflow result = %+v", result)
	}
	execSite := wf.JobSites["compute_s1"]
	if execSite == "" {
		t.Fatal("compute site not recorded")
	}
	// The product is registered and locatable.
	if got := g.RLI.Sites("lfn:cand-1"); len(got) == 0 {
		t.Fatal("output not in RLS")
	}
	// If execution happened away from the data, staging moved ~4 GB.
	if execSite != "UWMilwaukee_LSC" {
		var bytes int64
		for _, h := range g.Network.History() {
			bytes += h.Bytes
		}
		if bytes < 4<<30 {
			t.Fatalf("stage-in volume = %d", bytes)
		}
	}
}

func TestRunWorkflowUnknownVO(t *testing.T) {
	g, _ := New(Config{Seed: 9})
	cdag := &pegasus.ConcreteDAG{Jobs: map[string]*pegasus.ConcreteJob{}}
	if _, err := g.RunWorkflow(cdag, "nope", "/CN=x", func(dagman.Result) {}); err == nil {
		t.Fatal("unknown VO accepted")
	}
}

func TestRunWorkflowMissingInputFails(t *testing.T) {
	g, _ := New(Config{Seed: 9})
	cat := ligoish(t)
	abstract, _ := cat.Plan("lfn:cand-1")
	// No seed: planning must fail on the missing replica.
	if _, err := g.PlannerFor(vo.LIGO, pegasus.VOAffinity).Plan(abstract, vo.LIGO); err == nil {
		t.Fatal("plan without input replica succeeded")
	}
}

// A Register node accepts a mapping that already exists (the retry of a
// node whose first attempt registered) but fails on a malformed one.
func TestRegisterNodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name, lfn string
		ok        bool
	}{
		{"duplicate", "lfn:cand-1", true},
		{"empty LFN", "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(Config{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			const site = "UWMilwaukee_LSC"
			if err := g.Nodes[site].LRC.Add("lfn:cand-1", "/data/lfn:cand-1", 1); err != nil {
				t.Fatal(err)
			}
			cdag := &pegasus.ConcreteDAG{
				Order: []string{"register"},
				Jobs: map[string]*pegasus.ConcreteJob{"register": {
					Name: "register", Type: pegasus.Register, Site: site, LFN: tc.lfn, Bytes: 1,
				}},
			}
			var result dagman.Result
			if _, err := g.RunWorkflow(cdag, vo.LIGO, "/CN=x", func(r dagman.Result) { result = r }); err != nil {
				t.Fatal(err)
			}
			g.Eng.RunUntil(time.Hour)
			if result.Succeeded() != tc.ok {
				t.Fatalf("result = %+v, want succeeded %v", result, tc.ok)
			}
			if tc.ok && len(g.RLI.Sites(tc.lfn)) != 1 {
				t.Fatalf("RLS sites = %v after re-registration", g.RLI.Sites(tc.lfn))
			}
		})
	}
}
