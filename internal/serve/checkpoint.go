package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"grid3/internal/checkpoint"
	"grid3/internal/core"
	"grid3/internal/vo"
)

// Journal op kinds. A serve-scope snapshot carries the full history of
// externally-injected mutations since boot; replaying them at their recorded
// sim times over the deterministic engine reconstructs the exact service
// state. Read-only handlers (status, RLS lookup, monitoring) never touch the
// engine's future, so they are not journaled.
const (
	opEnroll = "enroll"
	opSubmit = "submit"
)

// enrollOp is the journal payload for a successful VOMS enrollment: the
// validated wire request plus the target VO from the URL path.
type enrollOp struct {
	VO    string   `json:"vo"`
	DN    string   `json:"dn"`
	Name  string   `json:"name"`
	Roles []string `json:"roles,omitempty"`
}

// parseRoles validates the wire role names. Shared by the HTTP handler (400
// on failure) and journal replay (corrupt snapshot on failure).
func parseRoles(names []string) ([]vo.Role, error) {
	roles := make([]vo.Role, 0, len(names))
	for _, r := range names {
		switch role := vo.Role(r); role {
		case vo.RoleProduction, vo.RoleSoftware, vo.RoleAdmin, vo.RoleMember:
			roles = append(roles, role)
		default:
			return nil, fmt.Errorf("unknown role %q", r)
		}
	}
	return roles, nil
}

// applyEnroll performs the engine-side enrollment mutation — membership add
// plus the out-of-band grant of the new DN into every site's grid-mapfile.
// The HTTP handler and journal replay
// share it so a restored run re-executes exactly what the original did.
func applyEnroll(scen *core.Scenario, voName, dn, name string, roles []vo.Role) (total int, err error) {
	srv, err := scen.Grid.Registry.Server(voName)
	if err != nil {
		return 0, err
	}
	if err := srv.Add(dn, name, roles...); err != nil {
		return 0, err
	}
	scen.Grid.GrantGridmaps(dn)
	return srv.Len(), nil
}

// applySubmit performs the engine-side submission: normalize the walltime,
// register the job record, and hand the request to Condor-G with the
// terminal callback wired back into the table. Shared by the HTTP handler
// and journal replay; it must stay deterministic given (engine state,
// request), because replay reproduces job IDs and callback timing from it.
func applySubmit(scen *core.Scenario, jobs *jobTable, req submitRequest) *JobRecord {
	runtime := time.Duration(req.RuntimeSeconds * float64(time.Second))
	walltime := time.Duration(req.WalltimeSeconds * float64(time.Second))
	if walltime < runtime {
		walltime = runtime + time.Hour
	}
	g := scen.Grid
	live := jobs.add(req.VO, req.User, g.Eng.Now())
	g.SubmitJobFunc(appsRequest(req, live.ID, runtime, walltime), func(err error) {
		jobs.done(live, g.Eng.Now(), err)
	})
	return live
}

// journalOp appends one executed mutation to the service journal at the
// engine's current instant. Runs under the engine lock only.
func (s *Service) journalOp(kind string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		// The payloads are plain structs; a marshal failure is a programming
		// error, and silently dropping the op would corrupt every later
		// snapshot.
		panic(fmt.Sprintf("serve: journal %s: %v", kind, err))
	}
	s.journal = append(s.journal, checkpoint.Op{
		T:    s.scen.Grid.Eng.Now(),
		Kind: kind,
		Data: data,
	})
}

// replayServeOp applies one journaled operation during restore. scen and
// jobs belong to the scenario being rebuilt; the Service does not exist yet.
func replayServeOp(scen *core.Scenario, jobs *jobTable, op checkpoint.Op) error {
	switch op.Kind {
	case opEnroll:
		var e enrollOp
		if err := json.Unmarshal(op.Data, &e); err != nil {
			return fmt.Errorf("%w: enroll op: %v", checkpoint.ErrCorrupt, err)
		}
		roles, err := parseRoles(e.Roles)
		if err != nil {
			return fmt.Errorf("%w: enroll op: %v", checkpoint.ErrCorrupt, err)
		}
		// Enrollments are journaled only on success, so a failure here means
		// the snapshot does not match the configuration it claims.
		if _, err := applyEnroll(scen, e.VO, e.DN, e.Name, roles); err != nil {
			return fmt.Errorf("enroll %s into %s: %w", e.DN, e.VO, err)
		}
		return nil
	case opSubmit:
		var req submitRequest
		if err := json.Unmarshal(op.Data, &req); err != nil {
			return fmt.Errorf("%w: submit op: %v", checkpoint.ErrCorrupt, err)
		}
		// Submissions journal unconditionally — even a synchronous rejection
		// consumed a job ID and fired its callback, so replay re-executes it.
		applySubmit(scen, jobs, req)
		return nil
	default:
		return fmt.Errorf("%w: unknown journal op kind %q", checkpoint.ErrCorrupt, op.Kind)
	}
}

// hashState folds the job table into the verification walk: the ID sequence,
// the per-state counts, and every record in sorted-ID order. This is the
// serve layer's extra digest contribution — a restore that rebuilt the table
// differently (lost a job, flipped a terminal state) fails verification even
// if the grid underneath replayed perfectly.
func (t *jobTable) hashState(h *checkpoint.Hasher) {
	h.Int(t.seq)
	h.Int(int64(t.counts.Submitted))
	h.Int(int64(t.counts.Completed))
	h.Int(int64(t.counts.Failed))
	ids := make([]string, 0, len(t.byID))
	for id := range t.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h.Int(int64(len(ids)))
	for _, id := range ids {
		rec := t.byID[id]
		h.String(rec.ID)
		h.String(rec.VO)
		h.String(rec.User)
		h.String(rec.State)
		h.Dur(rec.SubmittedAt)
		h.Dur(rec.DoneAt)
		h.String(rec.Error)
	}
}

// snapshot assembles a serve-scope snapshot: scenario state digest extended
// with the job table, plus a copy of the op journal. Must run on the sim
// goroutine. A finished run is refused — Finish tears down the workers and
// flushes observability, so its state is no longer a restartable midpoint.
func (s *Service) snapshot() (*checkpoint.Snapshot, error) {
	if s.finished {
		return nil, checkpoint.ErrUnfinalized
	}
	journal := append([]checkpoint.Op(nil), s.journal...)
	return s.scen.Snapshot(checkpoint.ScopeServe, s.jobs.hashState, journal)
}

// Snapshot captures the service's current state via the ingress boundary.
// The capture is a pure read: the run continues byte-identically whether or
// not it was snapshotted.
func (s *Service) Snapshot() (*checkpoint.Snapshot, error) {
	var snap *checkpoint.Snapshot
	var serr error
	if err := s.Do(func() { snap, serr = s.snapshot() }); err != nil {
		return nil, err
	}
	return snap, serr
}

// restoreScenario rebuilds the scenario and job table from a snapshot. A
// serve-scope snapshot replays its journal and verifies the digest including
// the job table; a batch-scope snapshot (e.g. captured by grid3sim) warm-
// starts the service with an empty table, since no API jobs existed when it
// was taken.
func restoreScenario(snap *checkpoint.Snapshot, ov core.RestoreOverrides) (*core.Scenario, *jobTable, error) {
	jobs := newJobTable()
	if snap.Scope == checkpoint.ScopeServe {
		ov.ReplayOp = func(scen *core.Scenario, op checkpoint.Op) error {
			return replayServeOp(scen, jobs, op)
		}
		ov.ExtraHash = jobs.hashState
	} else {
		ov.ReplayOp = nil
		ov.ExtraHash = nil
	}
	scen, err := core.RestoreScenario(snap, ov)
	if err != nil {
		return nil, nil, err
	}
	return scen, jobs, nil
}
