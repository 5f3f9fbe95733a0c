package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grid3/internal/vo"
)

// newTestServer starts a small paced service and wraps its handler in an
// httptest server. The pace is slow enough that the grid barely moves
// during a test, keeping responses predictable.
func newTestServer(t *testing.T, hc HandlerConfig) (*Service, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	cfg.Pace = 1 // real time: the sim crawls during the test
	cfg.Scenario.Config.EnableObservability = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(NewHandler(s, hc))
	t.Cleanup(func() { ts.Close(); s.Stop() })
	return s, ts
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return out
}

func postJSON(t *testing.T, url string, body any, wantCode int) map[string]any {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", url, err)
	}
	return out
}

func TestHandlerHealthz(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz = %v", out)
	}
}

func TestHandlerStatus(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/api/v1/status", http.StatusOK)
	if out["pace"].(float64) != 1 {
		t.Fatalf("pace = %v, want 1", out["pace"])
	}
	if _, ok := out["jobs"].(map[string]any); !ok {
		t.Fatalf("status missing jobs block: %v", out)
	}
}

func TestHandlerVOList(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/api/v1/vo", http.StatusOK)
	vos := out["vos"].([]any)
	if len(vos) != len(vo.Grid3VOs) {
		t.Fatalf("%d VOs, want %d", len(vos), len(vo.Grid3VOs))
	}
}

func TestHandlerVOMembers(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/api/v1/vo/uscms/members", http.StatusOK)
	if out["vo"] != "uscms" {
		t.Fatalf("vo = %v", out["vo"])
	}
	if len(out["members"].([]any)) == 0 {
		t.Fatal("uscms has no members")
	}
	getJSON(t, ts.URL+"/api/v1/vo/nosuch/members", http.StatusNotFound)
}

func TestHandlerEnroll(t *testing.T) {
	s, ts := newTestServer(t, HandlerConfig{})
	url := ts.URL + "/api/v1/vo/ligo/members"
	body := map[string]any{"dn": "/DC=org/CN=New User", "name": "New User", "roles": []string{"production"}}
	out := postJSON(t, url, body, http.StatusCreated)
	if out["dn"] != "/DC=org/CN=New User" {
		t.Fatalf("enroll reply = %v", out)
	}
	// The new DN is in the membership and the gridmaps were refreshed.
	var member bool
	s.Do(func() {
		srv, _ := s.scen.Grid.Registry.Server("ligo")
		for _, dn := range srv.Members() {
			if dn == "/DC=org/CN=New User" {
				member = true
			}
		}
	})
	if !member {
		t.Fatal("enrolled DN not in VO membership")
	}
	postJSON(t, url, body, http.StatusConflict)                                                          // duplicate
	postJSON(t, url, map[string]any{"name": "x"}, http.StatusBadRequest)                                 // no dn
	postJSON(t, url, map[string]any{"dn": "/CN=y", "roles": []string{"royalty"}}, http.StatusBadRequest) // bad role
	postJSON(t, ts.URL+"/api/v1/vo/nosuch/members", body, http.StatusNotFound)

	// DNs a grid-mapfile cannot carry are refused before they reach the
	// engine or the journal, each with the rule it breaks.
	for _, c := range []struct{ dn, want string }{
		{"/CN=proxy", "empty without its proxy components"},
		{"CN=no slash", "does not start with '/'"},
		{`/DC=org/CN=Quote "Q" User`, "double quote"},
		{"/DC=org/CN=Line\nBreak", "newline"},
	} {
		out := postJSON(t, url, map[string]any{"dn": c.dn, "name": "x"}, http.StatusBadRequest)
		if msg, _ := out["error"].(string); !strings.Contains(msg, c.want) {
			t.Errorf("enroll %q: error %q does not say %q", c.dn, msg, c.want)
		}
	}
	var journaled int
	s.Do(func() { journaled = len(s.journal) })
	if journaled != 1 {
		t.Fatalf("journal holds %d operations, want only the one valid enrollment", journaled)
	}
}

func TestHandlerSubmitAndJobStatus(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	out := postJSON(t, ts.URL+"/api/v1/jobs", map[string]any{
		"vo": "usatlas", "user": "alice", "runtime_seconds": 3600,
	}, http.StatusAccepted)
	id, _ := out["id"].(string)
	if !strings.HasPrefix(id, "svc-usatlas-") {
		t.Fatalf("job id = %q", id)
	}
	if out["state"] != JobSubmitted {
		t.Fatalf("state = %v, want submitted", out["state"])
	}
	st := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if st["id"] != id {
		t.Fatalf("status id = %v", st["id"])
	}
	getJSON(t, ts.URL+"/api/v1/jobs/svc-none-00000000", http.StatusNotFound)

	// Bad submissions.
	postJSON(t, ts.URL+"/api/v1/jobs", map[string]any{"vo": "usatlas"}, http.StatusBadRequest)                                             // no user
	postJSON(t, ts.URL+"/api/v1/jobs", map[string]any{"vo": "usatlas", "user": "a"}, http.StatusBadRequest)                                // no runtime
	postJSON(t, ts.URL+"/api/v1/jobs", map[string]any{"vo": "nosuch", "user": "a", "runtime_seconds": 60}, http.StatusUnprocessableEntity) // unknown VO fails synchronously
	// Durations past time.Duration's range would wrap negative; each is
	// refused up front, naming its field.
	for _, c := range []struct {
		field string
		body  map[string]any
	}{
		{"runtime_seconds", map[string]any{"vo": "usatlas", "user": "a", "runtime_seconds": 1e12}},
		{"runtime_seconds", map[string]any{"vo": "usatlas", "user": "a", "runtime_seconds": 9.3e9}},
		{"walltime_seconds", map[string]any{"vo": "usatlas", "user": "a", "runtime_seconds": 60, "walltime_seconds": 1e12}},
		// A negative byte count was once taken as 0.
		{"input_bytes", map[string]any{"vo": "usatlas", "user": "a", "runtime_seconds": 60, "input_bytes": -5}},
		{"output_bytes", map[string]any{"vo": "usatlas", "user": "a", "runtime_seconds": 60, "output_bytes": -1}},
	} {
		out := postJSON(t, ts.URL+"/api/v1/jobs", c.body, http.StatusBadRequest)
		if msg, _ := out["error"].(string); !strings.Contains(msg, c.field) {
			t.Errorf("submit %v: error %q does not name %s", c.body, msg, c.field)
		}
	}
}

// POST bodies are decoded strictly. Each case is a body the lax decoder
// accepted (a submission got 202, an enrollment 201); now each gets 400
// naming the problem, on both endpoints that take a body.
func TestHandlerRefusesLaxBodies(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	big := strings.Repeat("x", maxBodyBytes)
	for _, c := range []struct {
		name, submit, enroll, want string
	}{
		{"unknown field",
			`{"vo": "usatlas", "user": "a", "runtime_seconds": 60, "walltime_secs": 7200}`,
			`{"dn": "/CN=lax-field", "rank": "admin"}`,
			`unknown field`},
		{"data after the object",
			`{"vo": "usatlas", "user": "a", "runtime_seconds": 60} {"vo": "uscms"}`,
			`{"dn": "/CN=lax-trailing"} trailing`,
			"data after the JSON object"},
		{"body over the cap",
			`{"vo": "usatlas", "user": "` + big + `", "runtime_seconds": 60}`,
			`{"dn": "/CN=` + big + `"}`,
			"larger than 1048576 bytes"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range []struct{ url, body string }{
				{ts.URL + "/api/v1/jobs", c.submit},
				{ts.URL + "/api/v1/vo/ligo/members", c.enroll},
			} {
				resp, err := http.Post(p.url, "application/json", strings.NewReader(p.body))
				if err != nil {
					t.Fatal(err)
				}
				var out map[string]any
				json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				msg, _ := out["error"].(string)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, c.want) {
					t.Errorf("POST %s = %d %q, want 400 naming %q", p.url, resp.StatusCode, msg, c.want)
				}
			}
		})
	}
}

func TestHandlerJobsSummary(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	postJSON(t, ts.URL+"/api/v1/jobs", map[string]any{
		"vo": "sdss", "user": "bob", "runtime_seconds": 60,
	}, http.StatusAccepted)
	out := getJSON(t, ts.URL+"/api/v1/jobs", http.StatusOK)
	svc := out["service_jobs"].(map[string]any)
	if svc["submitted"].(float64) < 1 {
		t.Fatalf("service_jobs = %v", svc)
	}
	if len(out["schedds"].([]any)) == 0 {
		t.Fatal("no schedds in summary")
	}
}

func TestHandlerRLS(t *testing.T) {
	s, ts := newTestServer(t, HandlerConfig{})
	// Seed one replica through the ingress boundary.
	err := s.Do(func() {
		g := s.scen.Grid
		n := g.Nodes[g.Order[0]]
		n.LRC.Add("lfn://test/file1", "/data/file1", 1<<20)
		g.RLI.Publish(n.LRC, 24*time.Hour)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := getJSON(t, ts.URL+"/api/v1/rls/lfn:%2F%2Ftest%2Ffile1", http.StatusOK)
	reps := out["replicas"].([]any)
	if len(reps) != 1 {
		t.Fatalf("replicas = %v", out)
	}
	pfn := reps[0].(map[string]any)["pfn"].(string)
	if !strings.HasPrefix(pfn, "gsiftp://") {
		t.Fatalf("pfn = %q", pfn)
	}
	getJSON(t, ts.URL+"/api/v1/rls/lfn:%2F%2Fno%2Fsuch", http.StatusNotFound)
}

func TestHandlerMetrics(t *testing.T) {
	s, ts := newTestServer(t, HandlerConfig{})
	// Advance an hour of sim time so the engine has processed real events.
	s.Do(func() { s.scen.RunUntil(s.scen.Grid.Eng.Now() + time.Hour) })
	out := getJSON(t, ts.URL+"/api/v1/monitor/metrics", http.StatusOK)
	if out["observability"] != true {
		t.Fatalf("observability = %v", out["observability"])
	}
	if out["events"].(float64) <= 0 {
		t.Fatalf("events = %v", out["events"])
	}
}

func TestHandlerMonALISA(t *testing.T) {
	s, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/api/v1/monitor/monalisa", http.StatusOK)
	series, _ := out["series"].([]any)
	if len(series) == 0 {
		// The repository may not have collected yet at pace 1; advance far
		// enough for a station cycle, then re-check.
		s.Do(func() { s.scen.RunUntil(s.scen.Grid.Eng.Now() + time.Hour) })
		out = getJSON(t, ts.URL+"/api/v1/monitor/monalisa", http.StatusOK)
		series, _ = out["series"].([]any)
	}
	if len(series) == 0 {
		t.Fatal("no MonALISA series after an hour of sim time")
	}
	// farm/param lookup for the first series key "farm/param".
	parts := strings.SplitN(series[0].(string), "/", 2)
	got := getJSON(t, ts.URL+fmt.Sprintf("/api/v1/monitor/monalisa?farm=%s&param=%s", parts[0], parts[1]), http.StatusOK)
	if got["farm"] != parts[0] {
		t.Fatalf("farm = %v", got["farm"])
	}
	getJSON(t, ts.URL+"/api/v1/monitor/monalisa?farm=onlyfarm", http.StatusBadRequest)
	getJSON(t, ts.URL+"/api/v1/monitor/monalisa?farm=no&param=such.param", http.StatusNotFound)
}

func TestHandlerACDC(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/api/v1/monitor/acdc", http.StatusOK)
	if _, ok := out["records"]; !ok {
		t.Fatalf("acdc reply = %v", out)
	}
}

func TestHandlerSites(t *testing.T) {
	_, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/api/v1/sites", http.StatusOK)
	sites := out["sites"].([]any)
	if len(sites) != 5 {
		t.Fatalf("%d sites, want 5", len(sites))
	}
	first := sites[0].(map[string]any)
	if first["name"] == "" || first["cpus"].(float64) <= 0 {
		t.Fatalf("site row = %v", first)
	}
}

func TestHandlerTickets(t *testing.T) {
	s, ts := newTestServer(t, HandlerConfig{})
	out := getJSON(t, ts.URL+"/api/v1/goc/tickets", http.StatusOK)
	if _, ok := out["total"]; !ok {
		t.Fatalf("tickets reply = %v", out)
	}
	// File a ticket directly and fetch it by ID.
	var id int
	s.Do(func() {
		tk := s.scen.Grid.Desk.Open("site0", "uscms", "test ticket", 1)
		id = tk.ID
	})
	got := getJSON(t, ts.URL+fmt.Sprintf("/api/v1/goc/tickets/%d", id), http.StatusOK)
	if int(got["id"].(float64)) != id {
		t.Fatalf("ticket id = %v, want %d", got["id"], id)
	}
	getJSON(t, ts.URL+"/api/v1/goc/tickets/99999", http.StatusNotFound)
	getJSON(t, ts.URL+"/api/v1/goc/tickets/notanumber", http.StatusBadRequest)
}

func TestHandlerConfigReload(t *testing.T) {
	// Without a hook: 405.
	_, ts := newTestServer(t, HandlerConfig{})
	postJSON(t, ts.URL+"/api/v1/config/reload", nil, http.StatusMethodNotAllowed)

	// With a hook: the handler reports what was applied.
	called := false
	_, ts2 := newTestServer(t, HandlerConfig{
		Reload: func() (map[string]any, error) {
			called = true
			return map[string]any{"pace": 60.0}, nil
		},
	})
	out := postJSON(t, ts2.URL+"/api/v1/config/reload", nil, http.StatusOK)
	if !called {
		t.Fatal("reload hook not called")
	}
	if out["applied"].(map[string]any)["pace"].(float64) != 60 {
		t.Fatalf("applied = %v", out["applied"])
	}
}

func TestHandlerOverloadMapsTo503(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPending = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Jam the queue so every handler sheds.
	release := jam(s)
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// healthz still answers: liveness does not cross the ingress boundary.
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz under overload = %v", out)
	}
	release()
	s.Stop()
}
