// GridFTP data transfer demonstrator (§4.7, §6.3) — both halves:
//
//  1. A real TCP GridFTP server/client session with GSI mutual
//     authentication and a third-party-style relay between two servers
//  2. The Entrada-style periodic transfer matrix on the simulated WAN,
//     verifying the 2 TB/day milestone the way §6.3 did, with every
//     transfer traced and rendered as NetLogger records.
package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"grid3/internal/dist"
	"grid3/internal/gridftp"
	"grid3/internal/gsi"
	"grid3/internal/obs"
	"grid3/internal/sim"
)

func main() {
	if err := realHalf(); err != nil {
		fmt.Fprintln(os.Stderr, "gridftp-demo:", err)
		os.Exit(1)
	}
	if err := simulatedHalf(); err != nil {
		fmt.Fprintln(os.Stderr, "gridftp-demo:", err)
		os.Exit(1)
	}
}

// realHalf runs genuine TCP servers and moves bytes between them.
func realHalf() error {
	now := time.Now()
	ca, err := gsi.NewCA("/CN=Grid3 demo CA", now.Add(-time.Hour), 24*time.Hour)
	if err != nil {
		return err
	}
	user, err := ca.Issue("/OU=People/CN=Transfer Study", now.Add(-time.Minute), 12*time.Hour)
	if err != nil {
		return err
	}
	proxy, err := gsi.NewProxy(user, now, 6*time.Hour)
	if err != nil {
		return err
	}
	gridmap := gsi.NewGridmap()
	gridmap.Map(user.Cert.Subject, "ivdgl")
	trust := gsi.NewTrustStore(ca.Certificate())

	// Two "sites", each a real TCP server.
	srcSrv := gridftp.NewServer(gridftp.NewFileStore(256<<20), trust, gridmap)
	dstSrv := gridftp.NewServer(gridftp.NewFileStore(256<<20), trust, gridmap)
	srcAddr, err := srcSrv.Serve()
	if err != nil {
		return err
	}
	defer srcSrv.Close()
	dstAddr, err := dstSrv.Serve()
	if err != nil {
		return err
	}
	defer dstSrv.Close()

	src, err := gridftp.Dial(srcAddr, proxy)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := gridftp.Dial(dstAddr, proxy)
	if err != nil {
		return err
	}
	defer dst.Close()

	// Seed 8 files at the source, relay them all to the destination.
	payload := bytes.Repeat([]byte("grid3"), 1<<18) // ~1.3 MB
	start := time.Now()
	var moved int
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("/s2/band-%02d.sft", i)
		if err := src.Put(name, payload); err != nil {
			return err
		}
		data, err := src.Get(name)
		if err != nil {
			return err
		}
		if err := dst.Put(name, data); err != nil {
			return err
		}
		moved += len(data)
	}
	elapsed := time.Since(start)
	fmt.Printf("real TCP: authenticated as %q, relayed %d files (%.1f MB) in %v\n",
		src.Account, 8, float64(moved)/(1<<20), elapsed.Round(time.Millisecond))
	return nil
}

// simulatedHalf reruns §6.3 on the simulated WAN with transfer spans on,
// then renders them as NetLogger records.
func simulatedHalf() error {
	eng := sim.NewEngine(sim.Grid3Epoch)
	net := gridftp.NewNetwork(eng)
	o := obs.New(eng.Now)
	net.Ins = gridftp.NewInstruments(o)
	sites := []string{"BNL", "FNAL", "Caltech", "UCSD", "UFlorida", "UC", "IU", "LBNL"}
	for _, s := range sites {
		net.AddEndpoint(s, 622)
	}
	rng := dist.New(63)
	// The Entrada matrix: every 30 minutes, a wave of site-pair transfers
	// sized to sustain >2 TB/day.
	target := int64(2) << 40
	perSweep := float64(target) / 48
	sim.NewTicker(eng, 30*time.Minute, func() {
		var launched float64
		i := 0
		for launched < perSweep && i < 64 {
			src := sites[rng.Intn(len(sites))]
			dst := sites[rng.Intn(len(sites))]
			i++
			if src == dst {
				continue
			}
			size := int64(2<<30) + int64(rng.Intn(2<<30))
			launched += float64(size)
			net.Start(src, dst, size, "ivdgl", nil)
		}
	})
	const days = 7
	eng.RunUntil(days * 24 * time.Hour)

	var total int64
	for _, b := range net.BytesByLabel() {
		total += b
	}
	fmt.Printf("simulated WAN: %.2f TB in %d days (%.2f TB/day, milestone target 2-3) across %d transfers\n",
		float64(total)/(1<<40), days, float64(total)/(1<<40)/days, net.Completed())
	var nl strings.Builder
	if err := o.Tracer.Trace().WriteNetLogger(&nl); err != nil {
		return err
	}
	count := func(kind string) int { return strings.Count(nl.String(), "NL.EVNT=gridftp.transfer."+kind+" ") }
	fmt.Printf("NetLogger captured %d start / %d end / %d error events; first records:\n",
		count("start"), count("end"), count("error"))
	shown := 0
	for _, line := range strings.Split(nl.String(), "\n") {
		if !strings.Contains(line, "NL.EVNT=gridftp.transfer.end ") {
			continue
		}
		fmt.Printf("  %s\n", line)
		shown++
		if shown == 3 {
			break
		}
	}
	return nil
}
