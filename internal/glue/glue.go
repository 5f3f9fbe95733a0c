// Package glue defines the GLUE-schema resource descriptions published by
// Grid3 sites, plus the Grid3-specific schema extensions of §5.1.
//
// The GLUE (Grid Laboratory Uniform Environment) schema describes computing
// elements (a gatekeeper + batch queue), storage elements, and clusters.
// Grid3 added "only a few extensions": application installation areas,
// temporary working directories, storage element locations, and the VDT
// software installation location. These extensions are what made automated
// user-level application installation (the ATLAS GCE path, §6.1) possible.
package glue

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"grid3/internal/classad"
)

// LRMS identifies the local resource management system behind a CE.
// Grid3 sites ran OpenPBS, Condor, or LSF (§5).
type LRMS string

// The batch systems deployed on Grid3.
const (
	PBS    LRMS = "pbs"
	Condor LRMS = "condor"
	LSF    LRMS = "lsf"
)

// CE describes a computing element: one gatekeeper/jobmanager pair in front
// of a batch queue.
type CE struct {
	ID          string // "host/jobmanager-lrms"
	SiteName    string
	Host        string
	LRMSType    LRMS
	TotalCPUs   int
	FreeCPUs    int
	RunningJobs int
	WaitingJobs int
	MaxWallTime time.Duration // longest job the queue admits
	MaxRunning  int           // cap on simultaneously running grid jobs; 0 = TotalCPUs
	VOs         []string      // VOs with group accounts at this site

	// Grid3 schema extensions (§5.1).
	AppDir      string // application installation area ($APP)
	DataDir     string // persistent data area ($DATA)
	TmpDir      string // temporary working directory ($WNTMP)
	VDTLocation string // VDT software installation location
	// OutboundIP reports whether worker nodes have outbound internet
	// connectivity — application requirement 1 of §6.4.
	OutboundIP bool
}

// Validate checks internal consistency.
func (ce *CE) Validate() error {
	switch {
	case ce.ID == "":
		return fmt.Errorf("glue: CE missing ID")
	case ce.SiteName == "":
		return fmt.Errorf("glue: CE %s missing site name", ce.ID)
	case ce.TotalCPUs <= 0:
		return fmt.Errorf("glue: CE %s has %d CPUs", ce.ID, ce.TotalCPUs)
	case ce.FreeCPUs < 0 || ce.FreeCPUs > ce.TotalCPUs:
		return fmt.Errorf("glue: CE %s free CPUs %d out of range", ce.ID, ce.FreeCPUs)
	case ce.MaxWallTime <= 0:
		return fmt.Errorf("glue: CE %s has no MaxWallTime", ce.ID)
	case len(ce.VOs) == 0:
		return fmt.Errorf("glue: CE %s supports no VOs", ce.ID)
	}
	return nil
}

// SupportsVO reports whether the CE has a group account for vo.
func (ce *CE) SupportsVO(vo string) bool {
	for _, v := range ce.VOs {
		if v == vo {
			return true
		}
	}
	return false
}

// Ad renders the CE as a ClassAd resource offer for Condor-G matchmaking.
func (ce *CE) Ad() *classad.Ad {
	ad := classad.NewAd()
	ad.SetString("Name", ce.ID)
	ad.SetString("Site", ce.SiteName)
	ad.SetString("GatekeeperHost", ce.Host)
	ad.SetString("LRMS", string(ce.LRMSType))
	ad.SetInt("TotalCpus", int64(ce.TotalCPUs))
	SetAdLoad(ad, ce.FreeCPUs, ce.RunningJobs, ce.WaitingJobs)
	ad.SetInt("MaxWallTime", int64(ce.MaxWallTime/time.Second))
	ad.SetString("SupportedVOs", strings.Join(ce.VOs, ","))
	ad.SetBool("OutboundIP", ce.OutboundIP)
	ad.SetString("AppDir", ce.AppDir)
	ad.SetString("DataDir", ce.DataDir)
	ad.SetString("TmpDir", ce.TmpDir)
	ad.SetString("VDTLocation", ce.VDTLocation)
	// Resource-side policy: accept jobs from supported VOs that fit the
	// walltime limit.
	ad.Set("Requirements", ceRequirements)
	return ad
}

// SetAdLoad rewrites the load attributes of an ad rendered by CE.Ad. Free
// CPUs and running and waiting jobs are the only CE fields that change
// once a site is built, so a collector refresh rewrites just these, and
// an unchanged value costs no allocation.
func SetAdLoad(ad *classad.Ad, freeCPUs, running, waiting int) {
	ad.SetInt("FreeCpus", int64(freeCPUs))
	ad.SetInt("RunningJobs", int64(running))
	ad.SetInt("WaitingJobs", int64(waiting))
}

// ceRequirements is parsed once: Ad() runs on every matchmaking pass, and
// re-parsing the policy there dominated scenario CPU.
var ceRequirements = classad.MustParse(
	"stringListMember(TARGET.VO, MY.SupportedVOs) && TARGET.WallTime <= MY.MaxWallTime")

// Attributes renders the CE as an MDS attribute map in GLUE naming.
func (ce *CE) Attributes() map[string][]string {
	return map[string][]string{
		"GlueCEUniqueID":                {ce.ID},
		"GlueCEInfoHostName":            {ce.Host},
		"GlueCEInfoLRMSType":            {string(ce.LRMSType)},
		"GlueCEStateTotalCPUs":          {strconv.Itoa(ce.TotalCPUs)},
		"GlueCEStateFreeCPUs":           {strconv.Itoa(ce.FreeCPUs)},
		"GlueCEStateRunningJobs":        {strconv.Itoa(ce.RunningJobs)},
		"GlueCEStateWaitingJobs":        {strconv.Itoa(ce.WaitingJobs)},
		"GlueCEPolicyMaxWallClockTime":  {strconv.FormatInt(int64(ce.MaxWallTime/time.Second), 10)},
		"GlueCEAccessControlBaseRule":   voRules(ce.VOs),
		"GlueSiteName":                  {ce.SiteName},
		"Grid3-App-Dir":                 {ce.AppDir},
		"Grid3-Data-Dir":                {ce.DataDir},
		"Grid3-Tmp-WN-Dir":              {ce.TmpDir},
		"Grid3-VDT-Location":            {ce.VDTLocation},
		"Grid3-Worker-Node-Outbound-IP": {strconv.FormatBool(ce.OutboundIP)},
	}
}

func voRules(vos []string) []string {
	out := make([]string, len(vos))
	for i, v := range vos {
		out[i] = "VO:" + v
	}
	sort.Strings(out)
	return out
}

// SE describes a storage element reachable over GridFTP.
type SE struct {
	ID         string
	SiteName   string
	Host       string
	TotalBytes int64
	UsedBytes  int64
	Protocol   string // "gsiftp"
}

// Validate checks internal consistency.
func (se *SE) Validate() error {
	switch {
	case se.ID == "":
		return fmt.Errorf("glue: SE missing ID")
	case se.TotalBytes <= 0:
		return fmt.Errorf("glue: SE %s has no capacity", se.ID)
	case se.UsedBytes < 0 || se.UsedBytes > se.TotalBytes:
		return fmt.Errorf("glue: SE %s used bytes %d out of range", se.ID, se.UsedBytes)
	}
	return nil
}

// FreeBytes returns remaining capacity.
func (se *SE) FreeBytes() int64 { return se.TotalBytes - se.UsedBytes }

// Attributes renders the SE as an MDS attribute map.
func (se *SE) Attributes() map[string][]string {
	return map[string][]string{
		"GlueSEUniqueID":           {se.ID},
		"GlueSEName":               {se.SiteName + ":" + se.ID},
		"GlueSEHost":               {se.Host},
		"GlueSESizeTotal":          {strconv.FormatInt(se.TotalBytes, 10)},
		"GlueSESizeFree":           {strconv.FormatInt(se.FreeBytes(), 10)},
		"GlueSEAccessProtocolType": {se.Protocol},
		"GlueSiteName":             {se.SiteName},
	}
}

// SubCluster describes homogeneous worker-node hardware behind a CE.
type SubCluster struct {
	ID        string
	CPUModel  string
	ClockMHz  int
	MemoryMB  int
	NodeCount int
	CPUsPer   int
}

// Attributes renders the subcluster as an MDS attribute map.
func (sc *SubCluster) Attributes() map[string][]string {
	return map[string][]string{
		"GlueSubClusterUniqueID":      {sc.ID},
		"GlueHostProcessorModel":      {sc.CPUModel},
		"GlueHostProcessorClockSpeed": {strconv.Itoa(sc.ClockMHz)},
		"GlueHostMainMemoryRAMSize":   {strconv.Itoa(sc.MemoryMB)},
		"GlueSubClusterPhysicalCPUs":  {strconv.Itoa(sc.NodeCount * sc.CPUsPer)},
		"GlueSubClusterLogicalCPUs":   {strconv.Itoa(sc.NodeCount * sc.CPUsPer)},
	}
}
