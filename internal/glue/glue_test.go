package glue

import (
	"testing"
	"time"

	"grid3/internal/classad"
)

func validCE() *CE {
	return &CE{
		ID:          "tier2-01.uchicago.edu/jobmanager-pbs",
		SiteName:    "UC_ATLAS_Tier2",
		Host:        "tier2-01.uchicago.edu",
		LRMSType:    PBS,
		TotalCPUs:   64,
		FreeCPUs:    20,
		RunningJobs: 44,
		WaitingJobs: 7,
		MaxWallTime: 48 * time.Hour,
		VOs:         []string{"usatlas", "ivdgl"},
		AppDir:      "/share/app",
		DataDir:     "/share/data",
		TmpDir:      "/scratch",
		VDTLocation: "/opt/vdt-1.1.8",
		OutboundIP:  true,
	}
}

func TestCEValidate(t *testing.T) {
	if err := validCE().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*CE){
		func(c *CE) { c.ID = "" },
		func(c *CE) { c.SiteName = "" },
		func(c *CE) { c.TotalCPUs = 0 },
		func(c *CE) { c.FreeCPUs = -1 },
		func(c *CE) { c.FreeCPUs = c.TotalCPUs + 1 },
		func(c *CE) { c.MaxWallTime = 0 },
		func(c *CE) { c.VOs = nil },
	}
	for i, mutate := range bad {
		c := validCE()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid CE validated", i)
		}
	}
}

func TestCESupportsVO(t *testing.T) {
	ce := validCE()
	if !ce.SupportsVO("usatlas") || ce.SupportsVO("uscms") {
		t.Fatal("SupportsVO wrong")
	}
}

func TestCEAdMatchesEligibleJob(t *testing.T) {
	ce := validCE()
	ad := ce.Ad()
	job := classad.MustParseAd(`
VO = "usatlas"
WallTime = 36000
Requirements = TARGET.FreeCpus > 0
`)
	if !classad.Match(job, ad) {
		t.Fatal("eligible job did not match CE ad")
	}
	// Wrong VO is rejected by the CE's own Requirements.
	wrongVO := classad.MustParseAd("VO = \"uscms\"\nWallTime = 3600\n")
	if classad.Match(wrongVO, ad) {
		t.Fatal("CE ad accepted unsupported VO")
	}
	// Too-long job rejected by MaxWallTime policy.
	long := classad.MustParseAd("VO = \"usatlas\"\nWallTime = 1000000\n")
	if classad.Match(long, ad) {
		t.Fatal("CE ad accepted job exceeding MaxWallTime")
	}
}

func TestCEAttributesCarryGrid3Extensions(t *testing.T) {
	attrs := validCE().Attributes()
	for _, key := range []string{
		"Grid3-App-Dir", "Grid3-Data-Dir", "Grid3-Tmp-WN-Dir", "Grid3-VDT-Location",
		"GlueCEStateFreeCPUs", "GlueCEPolicyMaxWallClockTime",
	} {
		if len(attrs[key]) == 0 || attrs[key][0] == "" {
			t.Errorf("attribute %s missing", key)
		}
	}
	if attrs["GlueCEPolicyMaxWallClockTime"][0] != "172800" {
		t.Errorf("MaxWallClockTime = %v, want 172800 s", attrs["GlueCEPolicyMaxWallClockTime"])
	}
	rules := attrs["GlueCEAccessControlBaseRule"]
	if len(rules) != 2 || rules[0] != "VO:ivdgl" || rules[1] != "VO:usatlas" {
		t.Errorf("access rules = %v", rules)
	}
}

func TestSEValidateAndFree(t *testing.T) {
	se := &SE{ID: "se.fnal.gov", SiteName: "FNAL_CMS", Host: "se.fnal.gov", TotalBytes: 10 << 40, UsedBytes: 3 << 40, Protocol: "gsiftp"}
	if err := se.Validate(); err != nil {
		t.Fatal(err)
	}
	if se.FreeBytes() != 7<<40 {
		t.Fatalf("FreeBytes = %d", se.FreeBytes())
	}
	se.UsedBytes = se.TotalBytes + 1
	if err := se.Validate(); err == nil {
		t.Fatal("overfull SE validated")
	}
	se2 := &SE{ID: "x", TotalBytes: 0}
	if err := se2.Validate(); err == nil {
		t.Fatal("zero-capacity SE validated")
	}
}

func TestSubClusterAttributes(t *testing.T) {
	sc := &SubCluster{ID: "wn", CPUModel: "P4 Xeon", ClockMHz: 2400, MemoryMB: 1024, NodeCount: 32, CPUsPer: 2}
	attrs := sc.Attributes()
	if attrs["GlueSubClusterLogicalCPUs"][0] != "64" {
		t.Fatalf("logical CPUs = %v", attrs["GlueSubClusterLogicalCPUs"])
	}
}

func TestSetAdLoadRewritesLoadInPlace(t *testing.T) {
	ce := validCE()
	ad := ce.Ad()
	ce.FreeCPUs, ce.RunningJobs, ce.WaitingJobs = 3, 5, 7
	SetAdLoad(ad, ce.FreeCPUs, ce.RunningJobs, ce.WaitingJobs)
	if got, want := ad.String(), ce.Ad().String(); got != want {
		t.Fatalf("refreshed ad:\n%s\nfresh ad:\n%s", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { SetAdLoad(ad, 3, 5, 7) }); allocs != 0 {
		t.Fatalf("unchanged load refresh made %v allocations, want 0", allocs)
	}
}

// ceAds renders n CE ads shaped like the scaled testbed's: mixed VO lists
// and walltime limits, and loads that tie.
func ceAds(n int) []*classad.Ad {
	vos := [][]string{{"ivdgl", "usatlas"}, {"uscms"}, {"ligo", "sdss", "usatlas", "uscms"}, {"btev", "ivdgl"}}
	ads := make([]*classad.Ad, n)
	for i := range ads {
		ce := validCE()
		ce.FreeCPUs = (i * 7) % 13
		ce.WaitingJobs = (i * 5) % 3
		ce.MaxWallTime = time.Duration(24+i%3*24) * time.Hour
		ce.VOs = vos[i%len(vos)]
		ads[i] = ce.Ad()
	}
	return ads
}

// jobAd is a Grid3 job ad as the grid and Condor-G build it.
func jobAd(vo string, wall time.Duration) *classad.Ad {
	ad := classad.NewAd()
	ad.Set("Rank", classad.MustParse("TARGET.FreeCpus - TARGET.WaitingJobs"))
	ad.SetString("VO", vo)
	ad.SetInt("WallTime", int64(wall/time.Second))
	return ad
}

func TestBestMatchOverCEAdsAllocatesNothing(t *testing.T) {
	ads := ceAds(1000)
	job := jobAd("uscms", 36*time.Hour)
	want, bestRank := -1, 0.0
	for i, ad := range ads {
		if r := classad.Rank(job, ad); classad.Match(job, ad) && (want < 0 || r > bestRank) {
			want, bestRank = i, r
		}
	}
	if got := classad.BestMatch(job, ads); want < 0 || got != want {
		t.Fatalf("BestMatch = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { classad.BestMatch(job, ads) }); allocs != 0 {
		t.Fatalf("BestMatch over %d CE ads made %v allocations, want 0", len(ads), allocs)
	}
}

// SetAdLoad must move the pick that BestMatch makes from a ranked ad: a
// swap of two ads' free CPUs flips it, and an identical refresh keeps it.
func TestSetAdLoadMovesBestMatch(t *testing.T) {
	ads := []*classad.Ad{validCE().Ad(), validCE().Ad()}
	job := jobAd("usatlas", time.Hour)
	steps := []struct {
		name         string
		free0, free1 int
		want         int
	}{
		{"first scan", 30, 10, 0},
		{"identical refresh", 30, 10, 0},
		{"free CPUs swapped", 10, 30, 1},
		{"identical refresh after the swap", 10, 30, 1},
		{"swapped back", 30, 10, 0},
	}
	for _, s := range steps {
		SetAdLoad(ads[0], s.free0, 44, 7)
		SetAdLoad(ads[1], s.free1, 44, 7)
		if got := classad.BestMatch(job, ads); got != s.want {
			t.Fatalf("%s: BestMatch = %d, want %d", s.name, got, s.want)
		}
	}
}

// BenchmarkBestMatchCEAds is one unpinned placement scan on the 1000-site
// testbed, which sees about 775 eligible CEs. Between two collector
// refreshes every scan finds each ad's job Rank memoized; "rebound"
// rebinds every ad's FreeCpus before each scan, so every candidate misses
// (its time includes the 775 rebinds).
func BenchmarkBestMatchCEAds(b *testing.B) {
	ads := ceAds(775)
	job := jobAd("uscms", 36*time.Hour)
	b.Run("unchanged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			classad.BestMatch(job, ads)
		}
	})
	b.Run("rebound", func(b *testing.B) {
		free := []classad.Expr{classad.MustParse("3"), classad.MustParse("5")}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ad := range ads {
				ad.Set("freecpus", free[i&1])
			}
			classad.BestMatch(job, ads)
		}
	})
}
