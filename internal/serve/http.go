package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"grid3/internal/apps"
	"grid3/internal/goc"
	"grid3/internal/rls"
	"grid3/internal/vo"
)

// APIVersion prefixes every route; bump it when a wire shape breaks.
const APIVersion = "v1"

// HandlerConfig wires optional daemon-level hooks into the HTTP surface.
type HandlerConfig struct {
	// Reload re-reads the daemon's config file and applies the dynamic
	// subset, returning what was applied; nil disables POST config/reload
	// (405). The serve layer itself only knows how to repace — file
	// handling belongs to the daemon.
	Reload func() (map[string]any, error)
}

// NewHandler builds the full HTTP/JSON API over a service. Every handler
// crosses the ingress boundary with Service.Do, so the grid is never
// touched off the sim goroutine.
func NewHandler(s *Service, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	p := func(pattern string) string { return fmt.Sprintf(pattern, APIVersion) }

	// Liveness: answered without entering the sim loop, so the probe works
	// even while the engine replays a catch-up burst.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET "+p("/api/%s/status"), func(w http.ResponseWriter, r *http.Request) {
		st, err := s.StatusNow()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, statusDTO(st))
	})

	mux.HandleFunc("GET "+p("/api/%s/vo"), s.handleVOList)
	mux.HandleFunc("GET "+p("/api/%s/vo/{vo}/members"), s.handleVOMembers)
	mux.HandleFunc("POST "+p("/api/%s/vo/{vo}/members"), s.handleEnroll)
	mux.HandleFunc("POST "+p("/api/%s/jobs"), s.handleSubmit)
	mux.HandleFunc("GET "+p("/api/%s/jobs"), s.handleJobsSummary)
	mux.HandleFunc("GET "+p("/api/%s/jobs/{id}"), s.handleJobStatus)
	mux.HandleFunc("GET "+p("/api/%s/rls/{lfn}"), s.handleRLS)
	mux.HandleFunc("GET "+p("/api/%s/monitor/metrics"), s.handleMetrics)
	mux.HandleFunc("GET "+p("/api/%s/monitor/monalisa"), s.handleMonALISA)
	mux.HandleFunc("GET "+p("/api/%s/monitor/acdc"), s.handleACDC)
	mux.HandleFunc("GET "+p("/api/%s/audit/roots"), s.handleAuditRoots)
	mux.HandleFunc("GET "+p("/api/%s/audit/proof"), s.handleAuditProof)
	mux.HandleFunc("GET "+p("/api/%s/sites"), s.handleSites)
	mux.HandleFunc("GET "+p("/api/%s/goc/tickets"), s.handleTickets)
	mux.HandleFunc("GET "+p("/api/%s/goc/tickets/{id}"), s.handleTicket)

	mux.HandleFunc("POST "+p("/api/%s/config/reload"), func(w http.ResponseWriter, r *http.Request) {
		if hc.Reload == nil {
			writeJSON(w, http.StatusMethodNotAllowed, errDTO("config reload not wired"))
			return
		}
		applied, err := hc.Reload()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errDTO(err.Error()))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"applied": applied})
	})

	return mux
}

// --- wire shapes -----------------------------------------------------------

func errDTO(msg string) map[string]string { return map[string]string{"error": msg} }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps ingress errors to status codes: a shed request is 503 (the
// overload contract), a stopped service 503, anything else 500.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errDTO(err.Error()))
	case errors.Is(err, ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, errDTO(err.Error()))
	default:
		writeJSON(w, http.StatusInternalServerError, errDTO(err.Error()))
	}
}

type statusJSON struct {
	SimTime       string    `json:"sim_time"`
	SimClock      time.Time `json:"sim_clock"`
	Pace          float64   `json:"pace"`
	LagSeconds    float64   `json:"lag_sim_seconds"`
	Events        uint64    `json:"events_processed"`
	PendingEvents int       `json:"pending_events"`
	Finished      bool      `json:"finished"`
	Jobs          JobCounts `json:"jobs"`
	Accepted      uint64    `json:"requests_accepted"`
	Shed          uint64    `json:"requests_shed"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

func statusDTO(st Status) statusJSON {
	return statusJSON{
		SimTime:       st.SimNow.String(),
		SimClock:      st.SimClock,
		Pace:          st.Pace,
		LagSeconds:    st.Lag.Seconds(),
		Events:        st.Events,
		PendingEvents: st.Pending,
		Finished:      st.Finished,
		Jobs:          st.Jobs,
		Accepted:      st.Accepted,
		Shed:          st.Shed,
		UptimeSeconds: st.UptimeSeconds,
	}
}

// --- VOMS ------------------------------------------------------------------

type voJSON struct {
	Name    string `json:"name"`
	Members int    `json:"members"`
}

func (s *Service) handleVOList(w http.ResponseWriter, r *http.Request) {
	var out []voJSON
	err := s.Do(func() {
		reg := s.scen.Grid.Registry
		for _, name := range reg.VOs() {
			srv, err := reg.Server(name)
			if err != nil {
				continue
			}
			out = append(out, voJSON{Name: name, Members: srv.Len()})
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"vos": out})
}

func (s *Service) handleVOMembers(w http.ResponseWriter, r *http.Request) {
	voName := r.PathValue("vo")
	var members []string
	var lookupErr error
	err := s.Do(func() {
		srv, err := s.scen.Grid.Registry.Server(voName)
		if err != nil {
			lookupErr = err
			return
		}
		members = srv.Members()
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if lookupErr != nil {
		writeJSON(w, http.StatusNotFound, errDTO(lookupErr.Error()))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"vo": voName, "members": members})
}

type enrollRequest struct {
	DN    string   `json:"dn"`
	Name  string   `json:"name"`
	Roles []string `json:"roles"`
}

// handleEnroll is VOMS enrollment (§5.3): the DN joins the VO's membership,
// and its entry is granted into every site's grid-mapfile immediately — an
// out-of-band edg-mkgridmap run, so the new member can authenticate at
// gatekeepers without waiting for the 6-hour refresh cycle.
func (s *Service) handleEnroll(w http.ResponseWriter, r *http.Request) {
	voName := r.PathValue("vo")
	var req enrollRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errDTO("bad enroll body: "+err.Error()))
		return
	}
	if req.DN == "" {
		writeJSON(w, http.StatusBadRequest, errDTO("dn is required"))
		return
	}
	roles, rerr := parseRoles(req.Roles)
	if rerr != nil {
		writeJSON(w, http.StatusBadRequest, errDTO(rerr.Error()))
		return
	}
	var enrollErr error
	var total int
	err := s.Do(func() {
		total, enrollErr = applyEnroll(s.scen, voName, req.DN, req.Name, roles)
		// Only successful enrollments mutate grid state, so only they enter
		// the replay journal.
		if enrollErr == nil {
			s.journalOp(opEnroll, enrollOp{VO: voName, DN: req.DN, Name: req.Name, Roles: req.Roles})
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if enrollErr != nil {
		code := http.StatusNotFound
		if errors.Is(enrollErr, vo.ErrDuplicate) {
			code = http.StatusConflict
		}
		writeJSON(w, code, errDTO(enrollErr.Error()))
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"vo": voName, "dn": req.DN, "members": total})
}

// --- jobs ------------------------------------------------------------------

type submitRequest struct {
	VO              string  `json:"vo"`
	User            string  `json:"user"`
	RuntimeSeconds  float64 `json:"runtime_seconds"`
	WalltimeSeconds float64 `json:"walltime_seconds"`
	InputBytes      int64   `json:"input_bytes"`
	OutputBytes     int64   `json:"output_bytes"`
	Priority        int     `json:"priority"`
	Preferred       string  `json:"preferred_site"`
}

// maxJobSeconds bounds runtime_seconds and walltime_seconds at half the
// time.Duration range (about 146 years), so the converted duration, the
// default walltime of runtime plus an hour, and the job's finish instant on
// the sim clock cannot wrap negative.
const maxJobSeconds = math.MaxInt64 / 2 / float64(time.Second)

type jobJSON struct {
	ID          string `json:"id"`
	VO          string `json:"vo"`
	User        string `json:"user"`
	State       string `json:"state"`
	SubmittedAt string `json:"submitted_sim_time"`
	DoneAt      string `json:"done_sim_time,omitempty"`
	Error       string `json:"error,omitempty"`
}

func jobDTO(rec *JobRecord) jobJSON {
	out := jobJSON{
		ID: rec.ID, VO: rec.VO, User: rec.User, State: rec.State,
		SubmittedAt: rec.SubmittedAt.String(),
		Error:       rec.Error,
	}
	if rec.State != JobSubmitted {
		out.DoneAt = rec.DoneAt.String()
	}
	return out
}

// handleSubmit is Condor-G submission: the request is admitted at the
// current sim time and routed through AUP, the VO's schedd, matchmaking,
// GRAM, and the data path; the terminal callback lands back in the job
// table. 202: accepted for asynchronous execution.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errDTO("bad submit body: "+err.Error()))
		return
	}
	if req.VO == "" || req.User == "" {
		writeJSON(w, http.StatusBadRequest, errDTO("vo and user are required"))
		return
	}
	if req.RuntimeSeconds <= 0 {
		writeJSON(w, http.StatusBadRequest, errDTO("runtime_seconds must be positive"))
		return
	}
	if req.RuntimeSeconds > maxJobSeconds {
		writeJSON(w, http.StatusBadRequest, errDTO(fmt.Sprintf("runtime_seconds must be at most %.0f", maxJobSeconds)))
		return
	}
	if req.WalltimeSeconds > maxJobSeconds {
		writeJSON(w, http.StatusBadRequest, errDTO(fmt.Sprintf("walltime_seconds must be at most %.0f", maxJobSeconds)))
		return
	}
	var rec JobRecord
	err := s.Do(func() {
		live := applySubmit(s.scen, s.jobs, req)
		// Even a synchronous rejection consumed a job ID and fired its
		// callback, so every executed submission enters the replay journal.
		s.journalOp(opSubmit, req)
		// A synchronous rejection (AUP, unknown VO, SRM denial) has already
		// fired the callback; report the terminal state in the response.
		rec = *live
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	code := http.StatusAccepted
	if rec.State == JobFailed {
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, jobDTO(&rec))
}

func (s *Service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var rec JobRecord
	found := false
	err := s.Do(func() {
		if live, ok := s.jobs.get(id); ok {
			rec, found = *live, true
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if !found {
		writeJSON(w, http.StatusNotFound, errDTO("no such job "+id))
		return
	}
	writeJSON(w, http.StatusOK, jobDTO(&rec))
}

type scheddJSON struct {
	VO            string `json:"vo"`
	Idle          int    `json:"idle"`
	Submitted     int    `json:"submitted"`
	Completed     int    `json:"completed"`
	Held          int    `json:"held"`
	MatchFailures int    `json:"match_failures"`
}

func (s *Service) handleJobsSummary(w http.ResponseWriter, r *http.Request) {
	var counts JobCounts
	var schedds []scheddJSON
	err := s.Do(func() {
		counts = s.jobs.counts
		g := s.scen.Grid
		for _, voName := range vo.Grid3VOs {
			sch, ok := g.Schedds[voName]
			if !ok {
				continue
			}
			schedds = append(schedds, scheddJSON{
				VO:            voName,
				Idle:          sch.IdleCount(),
				Submitted:     sch.SubmittedCount(),
				Completed:     sch.CompletedCount(),
				Held:          sch.HeldCount(),
				MatchFailures: sch.MatchFailures(),
			})
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"service_jobs": counts, "schedds": schedds})
}

// appsRequest converts the wire shape into the workload request the grid
// consumes.
func appsRequest(req submitRequest, id string, runtime, walltime time.Duration) apps.Request {
	return apps.Request{
		ID:          id,
		VO:          req.VO,
		User:        req.User,
		Runtime:     runtime,
		Walltime:    walltime,
		InputBytes:  req.InputBytes,
		OutputBytes: req.OutputBytes,
		Priority:    req.Priority,
		Preferred:   req.Preferred,
	}
}

// --- RLS -------------------------------------------------------------------

type replicaJSON struct {
	Site string `json:"site"`
	Path string `json:"path"`
	PFN  string `json:"pfn"`
}

func (s *Service) handleRLS(w http.ResponseWriter, r *http.Request) {
	lfn := r.PathValue("lfn")
	var pfns []rls.PFN
	var lookupErr error
	err := s.Do(func() {
		pfns, lookupErr = s.scen.Grid.RLI.Locate(lfn)
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if lookupErr != nil {
		writeJSON(w, http.StatusNotFound, errDTO(lookupErr.Error()))
		return
	}
	replicas := make([]replicaJSON, len(pfns))
	for i, p := range pfns {
		replicas[i] = replicaJSON{Site: p.Site, Path: p.Path, PFN: p.String()}
	}
	writeJSON(w, http.StatusOK, map[string]any{"lfn": lfn, "replicas": replicas})
}

// --- monitoring ------------------------------------------------------------

type metricJSON struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var counters, gauges []metricJSON
	var events uint64
	var pending int
	var simNow time.Duration
	obsOn := false
	err := s.Do(func() {
		g := s.scen.Grid
		events = g.Eng.Processed()
		pending = g.Eng.Pending()
		simNow = g.Eng.Now()
		if g.Obs != nil {
			obsOn = true
			snap := g.Obs.Metrics.Snapshot()
			for _, c := range snap.Counters {
				counters = append(counters, metricJSON{Name: c.Name, Value: float64(c.Value)})
			}
			for _, ga := range snap.Gauges {
				gauges = append(gauges, metricJSON{Name: ga.Name, Value: ga.Value})
			}
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sim_time":       simNow.String(),
		"events":         events,
		"pending_events": pending,
		"observability":  obsOn,
		"counters":       counters,
		"gauges":         gauges,
	})
}

// handleMonALISA serves the repository: without parameters, the series
// inventory; with farm and param, the latest sample of that series.
func (s *Service) handleMonALISA(w http.ResponseWriter, r *http.Request) {
	farm, param := r.URL.Query().Get("farm"), r.URL.Query().Get("param")
	if farm == "" && param == "" {
		var series []string
		if err := s.Do(func() { series = s.scen.Grid.Repo.Series() }); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"series": series})
		return
	}
	if farm == "" || param == "" {
		writeJSON(w, http.StatusBadRequest, errDTO("farm and param go together"))
		return
	}
	var value float64
	var at time.Duration
	found := false
	err := s.Do(func() {
		if m, ok := s.scen.Grid.Repo.Last(farm, param); ok {
			value, at, found = m.Value, m.Time, true
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if !found {
		writeJSON(w, http.StatusNotFound, errDTO("no samples for "+farm+"/"+param))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"farm": farm, "param": param, "value": value, "sim_time": at.String(),
	})
}

type acdcJSON struct {
	VO              string  `json:"vo"`
	Jobs            int     `json:"jobs_completed"`
	Failed          int     `json:"jobs_failed"`
	SitesUsed       int     `json:"sites_used"`
	TotalCPUDays    float64 `json:"total_cpu_days"`
	AvgRuntimeHours float64 `json:"avg_runtime_hours"`
	Efficiency      float64 `json:"efficiency"`
}

func (s *Service) handleACDC(w http.ResponseWriter, r *http.Request) {
	var records int
	var rows []acdcJSON
	err := s.Do(func() {
		g := s.scen.Grid
		g.ACDC.Pull() // fold the latest completion logs into the warehouse
		records = g.ACDC.Len()
		for _, voName := range vo.Grid3VOs {
			st := g.ACDC.Stats(voName)
			if st.Jobs == 0 && st.Failed == 0 {
				continue
			}
			rows = append(rows, acdcJSON{
				VO: voName, Jobs: st.Jobs, Failed: st.Failed,
				SitesUsed: st.SitesUsed, TotalCPUDays: st.TotalCPUDays,
				AvgRuntimeHours: st.AvgRuntimeHours, Efficiency: st.Efficiency(),
			})
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"records": records, "by_vo": rows})
}

type siteJSON struct {
	Name     string  `json:"name"`
	Location string  `json:"location"`
	Status   string  `json:"status"`
	Uptime   float64 `json:"uptime"`
	CPUs     int     `json:"cpus"`
	Note     string  `json:"note,omitempty"`
	LastErr  string  `json:"last_error,omitempty"`
}

func (s *Service) handleSites(w http.ResponseWriter, r *http.Request) {
	var sites []siteJSON
	err := s.Do(func() {
		g := s.scen.Grid
		for _, e := range g.Catalog.Entries() {
			row := siteJSON{
				Name: e.SiteName, Location: e.Location,
				Status: e.Status().String(), Uptime: e.Uptime(),
				Note: e.Note(), LastErr: e.LastError(),
			}
			if n, ok := g.Nodes[e.SiteName]; ok {
				row.CPUs = n.Spec.CPUs
			}
			sites = append(sites, row)
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sites": sites})
}

// --- iGOC ------------------------------------------------------------------

type ticketJSON struct {
	ID          int     `json:"id"`
	Site        string  `json:"site"`
	VO          string  `json:"vo"`
	Severity    string  `json:"severity"`
	Summary     string  `json:"summary"`
	State       string  `json:"state"`
	Assignee    string  `json:"assignee,omitempty"`
	OpenedSim   string  `json:"opened_sim_time"`
	ResolvedSim string  `json:"resolved_sim_time,omitempty"`
	EffortHours float64 `json:"effort_hours"`
	Reopens     int     `json:"reopens"`
}

func ticketDTO(t *goc.Ticket) ticketJSON {
	out := ticketJSON{
		ID: t.ID, Site: t.Site, VO: t.VO,
		Severity: t.Severity.String(), Summary: t.Summary,
		State: t.State.String(), Assignee: t.Assignee,
		OpenedSim:   t.Opened.String(),
		EffortHours: t.EffortHours, Reopens: t.Reopens,
	}
	if t.State == goc.Resolved {
		out.ResolvedSim = t.Resolved.String()
	}
	return out
}

func (s *Service) handleTickets(w http.ResponseWriter, r *http.Request) {
	var sites []string
	if site := r.URL.Query().Get("site"); site != "" {
		sites = append(sites, site)
	}
	var open []ticketJSON
	var total int
	var mttr time.Duration
	err := s.Do(func() {
		d := s.scen.Grid.Desk
		total = d.TicketCount()
		mttr = d.MeanTimeToResolve()
		for _, t := range d.OpenTickets(sites...) {
			open = append(open, ticketDTO(t))
		}
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total": total, "open": open, "mttr_sim_seconds": mttr.Seconds(),
	})
}

func (s *Service) handleTicket(w http.ResponseWriter, r *http.Request) {
	var id int
	if _, err := fmt.Sscanf(r.PathValue("id"), "%d", &id); err != nil {
		writeJSON(w, http.StatusBadRequest, errDTO("bad ticket id"))
		return
	}
	var tk goc.Ticket
	var lookupErr error
	err := s.Do(func() {
		t, err := s.scen.Grid.Desk.Ticket(id)
		if err != nil {
			lookupErr = err
			return
		}
		tk = *t
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if lookupErr != nil {
		writeJSON(w, http.StatusNotFound, errDTO(lookupErr.Error()))
		return
	}
	writeJSON(w, http.StatusOK, ticketDTO(&tk))
}
