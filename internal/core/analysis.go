package core

import (
	"fmt"
	"time"

	"grid3/internal/condorg"
	"grid3/internal/dial"
	"grid3/internal/gram"
)

// This file wires DIAL (§4.1/§6.1) into the grid: production feeds the
// dataset catalog as outputs are archived; analyses split into grid jobs
// that run where the data lives.

// gridDialRunner executes DIAL sub-jobs as grid jobs at the dataset's
// archive site, then evaluates the task's Process over the sub-job's
// files to produce the partial histogram.
type gridDialRunner struct {
	g       *Grid
	voName  string
	user    string
	site    string        // execution site (the archive, where data lives)
	perFile time.Duration // CPU cost per analyzed file
}

// RunSubJob implements dial.Runner.
func (r *gridDialRunner) RunSubJob(task *dial.Task, job dial.SubJob, done func(*dial.Histogram, error)) {
	runtime := time.Duration(len(job.Files)) * r.perFile
	if runtime < time.Minute {
		runtime = time.Minute
	}
	r.g.seq++
	gj := &condorg.GridJob{
		ID:         fmt.Sprintf("dial-%s-%d-%08d", task.Name, job.Index, r.g.seq),
		TargetSite: r.site,
		MaxRetries: 1,
		Spec: gram.Spec{
			Subject:       r.user,
			VO:            r.voName,
			Executable:    "dial/" + task.Name,
			Walltime:      runtime*2 + time.Hour,
			Runtime:       runtime,
			StagingFactor: 2,
		},
		Owner: condorg.DoneFunc(func(_ *condorg.GridJob, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			merged := &dial.Histogram{}
			for i, lfn := range job.Files {
				var bytes int64
				if i < len(job.Sizes) {
					bytes = job.Sizes[i]
				}
				h, perr := task.Process(lfn, bytes)
				if perr != nil {
					done(nil, perr)
					return
				}
				merged.Merge(h)
			}
			done(merged, nil)
		}),
	}
	sch, ok := r.g.Schedds[r.voName]
	if !ok {
		done(nil, fmt.Errorf("core: no schedd for VO %s", r.voName))
		return
	}
	if err := sch.Submit(gj); err != nil {
		done(nil, err)
	}
}

// AnalyzeDataset runs a DIAL task over a cataloged dataset as grid jobs at
// the VO's archive site (where production registered the files). onDone
// fires when every sub-job has reported; perFile is the analysis CPU cost
// per file.
func (g *Grid) AnalyzeDataset(voName, user, dsName string, task *dial.Task, perFile time.Duration, onDone func(dial.Result)) error {
	runner := &gridDialRunner{
		g: g, voName: voName, user: user,
		site:    ArchiveSiteFor(voName),
		perFile: perFile,
	}
	return dial.Analyze(g.DIAL, dsName, task, runner, onDone)
}
