package serve

import (
	"fmt"
	"time"
)

// Job states as the API reports them. A job is "submitted" from admission
// until its end-to-end completion callback fires (Condor-G does not expose
// intermediate schedd states across the façade), then "completed" or
// "failed".
const (
	JobSubmitted = "submitted"
	JobCompleted = "completed"
	JobFailed    = "failed"
)

// JobRecord is the service-side view of one submitted job.
type JobRecord struct {
	ID          string
	VO          string
	User        string
	State       string
	SubmittedAt time.Duration // sim time of admission
	DoneAt      time.Duration // sim time of the terminal callback
	Error       string        // terminal error, for failed jobs
}

// JobCounts summarizes the table by state.
type JobCounts struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

// jobTable tracks every job admitted through the API. The engine lock
// guards it — all access goes through Service.Do — so it needs no lock of
// its own.
type jobTable struct {
	seq    int64
	byID   map[string]*JobRecord
	counts JobCounts
}

func newJobTable() *jobTable {
	return &jobTable{byID: make(map[string]*JobRecord)}
}

// add registers a fresh submission and returns its record.
func (t *jobTable) add(vo, user string, now time.Duration) *JobRecord {
	t.seq++
	rec := &JobRecord{
		ID:          fmt.Sprintf("svc-%s-%08d", vo, t.seq),
		VO:          vo,
		User:        user,
		State:       JobSubmitted,
		SubmittedAt: now,
	}
	t.byID[rec.ID] = rec
	t.counts.Submitted++
	return rec
}

// done records the terminal callback.
func (t *jobTable) done(rec *JobRecord, now time.Duration, err error) {
	if rec.State != JobSubmitted {
		return
	}
	t.counts.Submitted--
	rec.DoneAt = now
	if err != nil {
		rec.State = JobFailed
		rec.Error = err.Error()
		t.counts.Failed++
		return
	}
	rec.State = JobCompleted
	t.counts.Completed++
}

// get looks a record up by ID.
func (t *jobTable) get(id string) (*JobRecord, bool) {
	rec, ok := t.byID[id]
	return rec, ok
}
