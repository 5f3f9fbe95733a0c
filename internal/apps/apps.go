// Package apps models the ten Grid3 application workloads: the seven
// Table 1 job classes (BTeV, iVDGL, LIGO, SDSS, US-ATLAS, US-CMS, and the
// Condor exerciser) plus the computer-science demonstrators (the
// Entrada/GridFTP transfer matrix of §4.7/§6.3).
//
// Each class is calibrated against the paper's Table 1 statistics — job
// counts, mean/max runtimes, peak production months, VO user counts, and
// site-affinity skew — so the full scenario regenerates the table's shape.
package apps

import (
	"fmt"
	"strconv"
	"time"

	"grid3/internal/dist"
	"grid3/internal/sim"
	"grid3/internal/vo"
)

// Request is one job the workload hands to the grid (the submit-side view;
// the embedding system routes it through Condor-G → GRAM).
type Request struct {
	ID            string
	VO            string
	User          string // submitter DN
	Runtime       time.Duration
	Walltime      time.Duration
	StagingFactor float64
	InputBytes    int64 // staged in before execution
	OutputBytes   int64 // archived after success
	Priority      int
	// Preferred pins the job to a site by name ("favorite resources",
	// §6.4); empty means matchmake.
	Preferred string
}

// Submitter consumes job requests.
type Submitter interface {
	SubmitJob(Request)
}

// SubmitterFunc adapts a closure.
type SubmitterFunc func(Request)

// SubmitJob implements Submitter.
func (f SubmitterFunc) SubmitJob(r Request) { f(r) }

// Class describes one application demonstrator's workload.
type Class struct {
	VO    string
	Users int // Table 1 "Number of Users"
	// TotalJobs targets the Table 1 completed-job count over the window.
	TotalJobs int
	// MeanRuntime and MaxRuntime bound the lognormal runtime draw
	// (Table 1 "Avg./Max. Runtime").
	MeanRuntime time.Duration
	MaxRuntime  time.Duration
	// Sigma is the lognormal log-space spread.
	Sigma float64
	// MonthWeights apportions TotalJobs across the seven scenario months
	// (Oct 2003 .. Apr 2004); it is normalized internally.
	MonthWeights [7]float64
	// BurstMean is the mean extra jobs per submission event (production
	// systems submit assignments, not single jobs).
	BurstMean float64
	// StagingFactor is the §6.4 gatekeeper load multiplier.
	StagingFactor float64
	// InputBytes / OutputBytes are per-job data volumes.
	InputBytes  int64
	OutputBytes int64
	// AffinityProb is the probability a job is pinned to one of the VO's
	// preferred sites (producing Table 1's single-resource skew).
	AffinityProb float64
	// FavoriteShare is, among pinned jobs, the probability of picking the
	// single favorite (first preferred) site — calibrated to Table 1's
	// "Max. Prod. from Single Resource [%]" column.
	FavoriteShare float64
	// MaxSites caps how many distinct sites the class uses (Table 1
	// "Grid3 Sites Used"); 0 = no cap.
	MaxSites int
	// Priority for the local scheduler; the exerciser is negative.
	Priority int
	// UnderestimateProb is the chance a user requests too little
	// walltime, producing a walltime-kill failure (§6.2 long OSCAR jobs).
	UnderestimateProb float64
	// SurgeStart/SurgeEnd/SurgeFactor model a demonstration push: within
	// the window, submission gaps shrink by SurgeFactor. The scenario
	// sets this to the SC2003 week, when every group drove its
	// application at once (the 1300-concurrent-jobs §7 milestone landed
	// on Nov 20, mid-conference).
	SurgeStart  time.Duration
	SurgeEnd    time.Duration
	SurgeFactor float64
}

const (
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// Grid3Classes returns the seven Table 1 classes with calibration
// constants from the paper.
func Grid3Classes() []Class {
	return []Class{
		{
			VO: vo.BTeV, Users: 1, TotalJobs: 2598,
			MeanRuntime: time.Duration(1.77 * float64(time.Hour)), MaxRuntime: 118 * time.Hour, Sigma: 1.1,
			// Peak 11-2003 with 91% of all production (2377/2598).
			MonthWeights:  [7]float64{0.03, 0.915, 0.02, 0.015, 0.01, 0.005, 0.005},
			BurstMean:     25, // "1000 10-hour jobs across Grid3" style assignments
			StagingFactor: 1, OutputBytes: 200 * mib,
			AffinityProb: 0.95, FavoriteShare: 0.598, MaxSites: 8, UnderestimateProb: 0.02,
		},
		{
			VO: vo.IVDGL, Users: 24, TotalJobs: 58145,
			MeanRuntime: time.Duration(1.22 * float64(time.Hour)), MaxRuntime: 292 * time.Hour, Sigma: 1.3,
			// Peak 11-2003 (25722/58145 = 44%).
			MonthWeights:  [7]float64{0.15, 0.44, 0.12, 0.09, 0.08, 0.07, 0.05},
			BurstMean:     10, // SnB and GADU batches
			StagingFactor: 1, InputBytes: 20 * mib, OutputBytes: 50 * mib,
			AffinityProb: 0.92, FavoriteShare: 0.881, MaxSites: 19, UnderestimateProb: 0.01,
		},
		{
			VO: vo.LIGO, Users: 7, TotalJobs: 3,
			MeanRuntime: 36 * time.Second, MaxRuntime: 72 * time.Second, Sigma: 0.3,
			// The ACDC sample saw only a December trickle; LIGO's real
			// pulsar workflows ran outside this accounting (§4.4).
			MonthWeights:  [7]float64{0, 0, 1, 0, 0, 0, 0},
			BurstMean:     0,
			StagingFactor: 4, InputBytes: 4 * gib,
			AffinityProb: 1.0, FavoriteShare: 1.0, MaxSites: 1,
		},
		{
			VO: vo.SDSS, Users: 9, TotalJobs: 5410,
			MeanRuntime: time.Duration(1.46 * float64(time.Hour)), MaxRuntime: 153 * time.Hour, Sigma: 1.2,
			// Peak 02-2004 (1564/5410 = 29%).
			MonthWeights:  [7]float64{0.08, 0.15, 0.11, 0.12, 0.29, 0.14, 0.11},
			BurstMean:     15, // thousand-step cluster-finding workflows
			StagingFactor: 2, InputBytes: 100 * mib, OutputBytes: 30 * mib,
			AffinityProb: 0.92, FavoriteShare: 0.716, MaxSites: 13, UnderestimateProb: 0.02,
		},
		{
			VO: vo.USATLAS, Users: 25, TotalJobs: 7455,
			MeanRuntime: time.Duration(8.81 * float64(time.Hour)), MaxRuntime: 292 * time.Hour, Sigma: 1.0,
			// Peak 11-2003 (3198/7455 = 43%), spread over 17 sites with a
			// low single-site share (28.2%).
			MonthWeights:  [7]float64{0.12, 0.43, 0.12, 0.10, 0.09, 0.08, 0.06},
			BurstMean:     20, // GCE DC assignments
			StagingFactor: 2, InputBytes: 100 * mib, OutputBytes: 2 * gib,
			AffinityProb: 0.92, FavoriteShare: 0.20, MaxSites: 18, UnderestimateProb: 0.03,
		},
		{
			VO: vo.USCMS, Users: 26, TotalJobs: 19354,
			MeanRuntime: time.Duration(41.85 * float64(time.Hour)), MaxRuntime: 1239 * time.Hour, Sigma: 1.05,
			// Peak 11-2003 (8834/19354 = 46%).
			MonthWeights:  [7]float64{0.10, 0.46, 0.12, 0.10, 0.08, 0.08, 0.06},
			BurstMean:     30, // MOP assignments
			StagingFactor: 2, InputBytes: 200 * mib, OutputBytes: 1 * gib,
			AffinityProb: 0.92, FavoriteShare: 0.484, MaxSites: 18, UnderestimateProb: 0.05, // long OSCAR jobs, §6.2
		},
		{
			VO: vo.Exerciser, Users: 3, TotalJobs: 198272,
			MeanRuntime: time.Duration(0.13 * float64(time.Hour)), MaxRuntime: 36 * time.Hour, Sigma: 0.8,
			// The Condor group's exerciser (§4.7), a backfill probe run
			// "repeatedly with a low priority". It is interval-driven, not
			// burst-driven; weights still matter for the rate profile
			// (peak 12-2003).
			MonthWeights:  [7]float64{0.10, 0.15, 0.36, 0.13, 0.10, 0.09, 0.07},
			BurstMean:     0,
			StagingFactor: 1,
			AffinityProb:  1.0, FavoriteShare: 0.534, MaxSites: 14, Priority: -10,
		},
	}
}

// ClassByVO finds a class in a set.
func ClassByVO(classes []Class, voName string) (Class, bool) {
	for _, c := range classes {
		if c.VO == voName {
			return c, true
		}
	}
	return Class{}, false
}

// UserDNs synthesizes the class's member DNs (registered in VOMS by the
// embedding system).
func (c *Class) UserDNs() []string {
	out := make([]string, c.Users)
	for i := range out {
		out[i] = fmt.Sprintf("/DC=org/DC=doegrids/OU=People/CN=%s user %02d", c.VO, i)
	}
	return out
}

// MonthWindow is one calendar month slice of the scenario.
type MonthWindow struct {
	Start, End time.Duration
	Label      string
}

// MonthWindows splits [0, horizon) anchored at epoch into calendar months.
func MonthWindows(epoch time.Time, horizon time.Duration) []MonthWindow {
	var out []MonthWindow
	cur := epoch
	for epochOffset(epoch, cur) < horizon {
		next := time.Date(cur.Year(), cur.Month()+1, 1, 0, 0, 0, 0, time.UTC)
		start := epochOffset(epoch, cur)
		end := epochOffset(epoch, next)
		if end > horizon {
			end = horizon
		}
		out = append(out, MonthWindow{
			Start: start, End: end,
			Label: fmt.Sprintf("%02d-%d", int(cur.Month()), cur.Year()),
		})
		cur = next
	}
	return out
}

func epochOffset(epoch, t time.Time) time.Duration { return t.Sub(epoch) }

// Generator drives one class's submissions over the scenario.
type Generator struct {
	eng   *sim.Engine
	rng   *dist.RNG
	class Class
	sub   Submitter
	epoch time.Time
	// PreferredSites receives affinity-pinned jobs (round-robin weighted
	// toward the first entry, matching the single-site skew).
	PreferredSites []string

	users     []string
	runtimes  dist.TruncatedLogNormal
	submitted int
	horizon   time.Duration
}

// NewGenerator builds a generator for one class.
func NewGenerator(eng *sim.Engine, rng *dist.RNG, epoch time.Time, class Class, sub Submitter, preferred []string) *Generator {
	minRT := time.Second
	return &Generator{
		eng: eng, rng: rng, class: class, sub: sub, epoch: epoch,
		PreferredSites: preferred,
		users:          class.UserDNs(),
		runtimes: dist.TruncatedLogNormal{
			LN: dist.LogNormalFromMean(class.MeanRuntime.Hours(), class.Sigma),
			Lo: minRT.Hours(),
			Hi: class.MaxRuntime.Hours(),
		},
	}
}

// Submitted returns how many jobs the generator has produced.
func (g *Generator) Submitted() int { return g.submitted }

// Start schedules the class's submission process across [0, horizon).
func (g *Generator) Start(horizon time.Duration) {
	g.horizon = horizon
	months := MonthWindows(g.epoch, horizon)
	var totalW float64
	for i := range months {
		if i < len(g.class.MonthWeights) {
			totalW += g.class.MonthWeights[i]
		}
	}
	if totalW == 0 {
		return
	}
	for i, mw := range months {
		if i >= len(g.class.MonthWeights) {
			break
		}
		w := g.class.MonthWeights[i] / totalW
		target := float64(g.class.TotalJobs) * w
		if target < 0.5 {
			continue
		}
		g.scheduleMonth(mw, target)
	}
}

// scheduleMonth arms a Poisson submission process covering one month.
func (g *Generator) scheduleMonth(mw MonthWindow, targetJobs float64) {
	burst := g.class.BurstMean
	if burst < 0 {
		burst = 0
	}
	meanPerEvent := 1 + burst
	events := targetJobs / meanPerEvent
	if events < 1 {
		events = 1
	}
	meanGap := time.Duration(float64(mw.End-mw.Start) / events)
	// A surge compresses submissions inside its window without inflating
	// the month's calibrated total: stretch the baseline gap by the
	// expected surge gain so the two effects cancel.
	if c := &g.class; c.SurgeFactor > 1 {
		lo, hi := c.SurgeStart, c.SurgeEnd
		if lo < mw.Start {
			lo = mw.Start
		}
		if hi > mw.End {
			hi = mw.End
		}
		if hi > lo {
			span := float64(mw.End - mw.Start)
			surge := float64(hi - lo)
			inflation := (span - surge + surge*c.SurgeFactor) / span
			meanGap = time.Duration(float64(meanGap) * inflation)
		}
	}
	var arm func(at time.Duration)
	arm = func(at time.Duration) {
		if at >= mw.End || at >= g.horizon {
			return
		}
		g.eng.At(at, func() {
			n := 1
			if burst > 0 {
				n += g.rng.Poisson(burst)
			}
			for i := 0; i < n; i++ {
				g.emit()
			}
			gap := g.rng.ExpDuration(meanGap)
			now := g.eng.Now()
			if c := &g.class; c.SurgeFactor > 1 && now >= c.SurgeStart && now < c.SurgeEnd {
				gap = time.Duration(float64(gap) / c.SurgeFactor)
			}
			arm(now + gap)
		})
	}
	arm(mw.Start + g.rng.ExpDuration(meanGap))
}

// requestID is the ID of a class's n-th request: VO-N with N zero-padded
// to six digits.
func requestID(voName string, n int) string {
	var buf [64]byte
	b := append(buf[:0], voName...)
	b = append(b, '-')
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// emit produces one job request.
func (g *Generator) emit() {
	c := &g.class
	g.submitted++
	runtime := time.Duration(g.runtimes.Sample(g.rng) * float64(time.Hour))
	if runtime < time.Second {
		runtime = time.Second
	}
	var walltime time.Duration
	if g.rng.Bernoulli(c.UnderestimateProb) {
		walltime = time.Duration(float64(runtime) * g.rng.Uniform(0.5, 0.95))
	} else {
		walltime = time.Duration(float64(runtime) * g.rng.Uniform(1.2, 2.5))
	}
	if walltime < time.Minute {
		walltime = time.Minute
	}
	req := Request{
		ID:            requestID(c.VO, g.submitted),
		VO:            c.VO,
		User:          g.users[g.rng.Intn(len(g.users))],
		Runtime:       runtime,
		Walltime:      walltime,
		StagingFactor: c.StagingFactor,
		InputBytes:    c.InputBytes,
		OutputBytes:   c.OutputBytes,
		Priority:      c.Priority,
	}
	if len(g.PreferredSites) > 0 && g.rng.Bernoulli(c.AffinityProb) {
		// Weight the first preferred site by the class's calibrated
		// single-resource share (Table 1's "Max. Prod." column).
		fav := c.FavoriteShare
		if fav == 0 {
			fav = 0.5
		}
		if g.rng.Bernoulli(fav) {
			req.Preferred = g.PreferredSites[0]
		} else {
			req.Preferred = g.PreferredSites[g.rng.Intn(len(g.PreferredSites))]
		}
	}
	g.sub.SubmitJob(req)
}
