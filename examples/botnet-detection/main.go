// Botnet detection: the adversarial-traffic use case from the paper's
// introduction. A command-and-control (C2) botnet is injected into
// background traffic; the accumulated hierarchical traffic matrix is then
// mined with GraphBLAS graph algorithms — fan-out ranking to shortlist
// suspects, BFS from the C2 host to recover the bot set, and k-truss to
// isolate the densely meshed peer-to-peer core.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"hhgb/internal/gb"
	"hhgb/internal/hier"
	"hhgb/internal/repro/algo"
	"hhgb/internal/repro/trace"
	"hhgb/internal/stats"
)

func main() {
	log.SetFlags(0)

	const dim = trace.IPv4Space
	h, err := hier.New[uint64](dim, dim, hier.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Background: benign power-law traffic.
	gen, err := trace.NewGenerator(0x5afe)
	if err != nil {
		log.Fatal(err)
	}
	observe := func(rows, cols []gb.Index) {
		vals := make([]uint64, len(rows))
		for k := range vals {
			vals[k] = 1
		}
		if err := h.Update(rows, cols, vals); err != nil {
			log.Fatal(err)
		}
	}
	for batch := 0; batch < 20; batch++ {
		flows := gen.Batch(10_000)
		rows := make([]gb.Index, len(flows))
		cols := make([]gb.Index, len(flows))
		for k, f := range flows {
			rows[k] = trace.IPv4ToIndex(f.Src)
			cols[k] = trace.IPv4ToIndex(f.Dst)
		}
		observe(rows, cols)
	}

	// Inject the botnet: one C2 host commanding 500 bots (star), with the
	// bots also meshed peer-to-peer (a dense triangle-rich core).
	rng := rand.New(rand.NewPCG(7, 11))
	c2 := gb.Index(0xC2C2C2C2)
	botSet := make(map[gb.Index]bool)
	for len(botSet) < 500 {
		botSet[gb.Index(0xB0000000+uint64(rng.Uint32()%0xFFFFFF))] = true
	}
	bots := make([]gb.Index, 0, len(botSet))
	for b := range botSet {
		bots = append(bots, b)
	}
	var rows, cols []gb.Index
	for _, b := range bots {
		// C2 <-> bot beaconing.
		rows = append(rows, c2, b)
		cols = append(cols, b, c2)
	}
	for i := 0; i < len(bots); i++ {
		for j := i + 1; j < len(bots); j++ {
			if rng.Uint32()%100 < 30 { // 30% P2P mesh
				rows = append(rows, bots[i], bots[j])
				cols = append(cols, bots[j], bots[i])
			}
		}
	}
	observe(rows, cols)
	fmt.Printf("ingested background + botnet: %d updates in %d batches\n",
		h.Stats().Updates, h.Stats().Batches)

	// Analysis starts with one query of the cascade.
	m, err := h.Query()
	if err != nil {
		log.Fatal(err)
	}
	sum, err := stats.Summarize(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traffic matrix: %d entries, %d sources, max fan-out %d\n\n",
		sum.Entries, sum.Sources, sum.MaxOutDegree)

	// Step 1: fan-out ranking shortlists hub suspects. Benign supernodes
	// (CDNs, resolvers) rank here too — fan-out alone cannot convict.
	od, err := stats.OutDegrees(m)
	if err != nil {
		log.Fatal(err)
	}
	top, err := stats.TopK(od, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fan-out shortlist:")
	for rank, e := range top {
		ip, _ := trace.IndexToIPv4(e.Index)
		marker := ""
		if e.Index == c2 {
			marker = "  <- injected C2"
		}
		fmt.Printf("  %d. %-15s %4d peers%s\n", rank+1, trace.FormatIPv4(ip), e.Value, marker)
	}

	// Step 2: discriminate by neighborhood mesh density. A benign hub's
	// peers rarely talk to each other; C2 bots do (P2P mesh). For each
	// suspect, BFS finds the one-hop peers and the extracted peer-to-peer
	// submatrix gives the density.
	fmt.Println("\nneighborhood mesh density (peer-to-peer edges / possible):")
	var suspect gb.Index
	bestDensity := -1.0
	for _, e := range top {
		reach, err := algo.BFS(m, e.Index)
		if err != nil {
			log.Fatal(err)
		}
		var peers []gb.Index
		reach.Iterate(func(v gb.Index, d uint64) bool {
			if d == 1 {
				peers = append(peers, v)
			}
			return true
		})
		if len(peers) < 2 {
			continue
		}
		sub, err := gb.Extract(m, peers, peers)
		if err != nil {
			log.Fatal(err)
		}
		possible := float64(len(peers)) * float64(len(peers)-1)
		density := float64(sub.NVals()) / possible
		ip, _ := trace.IndexToIPv4(e.Index)
		marker := ""
		if e.Index == c2 {
			marker = "  <- injected C2"
		} else if botSet[e.Index] {
			marker = "  <- injected bot"
		}
		fmt.Printf("  %-15s %4d peers  density %.4f%s\n", trace.FormatIPv4(ip), len(peers), density, marker)
		if density > bestDensity {
			bestDensity = density
			suspect = e.Index
		}
	}
	// Any member of the mesh convicts the botnet; bots are just as dense
	// as the C2 from inside.
	if suspect != c2 && !botSet[suspect] {
		log.Fatalf("detection failed: densest suspect %x is not in the injected botnet", suspect)
	}
	fmt.Printf("\nconvicted: densest suspect is inside the injected botnet (density %.3f vs ~0.01-0.04 benign)\n", bestDensity)

	// Step 3: k-truss over the convicted suspect's neighborhood recovers
	// the bot roster (the triangle-rich P2P core).
	reach, err := algo.BFS(m, suspect)
	if err != nil {
		log.Fatal(err)
	}
	var nb []gb.Index
	reach.Iterate(func(v gb.Index, d uint64) bool {
		if d <= 1 {
			nb = append(nb, v)
		}
		return true
	})
	sub, err := gb.Extract(m, nb, nb)
	if err != nil {
		log.Fatal(err)
	}
	tri, err := algo.TriangleCount(sub)
	if err != nil {
		log.Fatal(err)
	}
	truss, err := algo.KTruss(sub, 4)
	if err != nil {
		log.Fatal(err)
	}
	// Extract relabels indices to positions in nb; map back to host ids.
	meshVerts := map[gb.Index]bool{}
	truss.Iterate(func(i, j gb.Index, _ uint64) bool {
		meshVerts[nb[i]] = true
		meshVerts[nb[j]] = true
		return true
	})
	inBotnet := 0
	for v := range meshVerts {
		if v == c2 || botSet[v] {
			inBotnet++
		}
	}
	fmt.Printf("\nsuspect neighborhood: %d triangles; 4-truss core spans %d hosts, %d of them injected botnet members\n",
		tri, len(meshVerts), inBotnet)
	if len(meshVerts) == 0 {
		log.Fatal("detection failed: no mesh core found")
	}
	fmt.Println("\nverdict: dense beaconing star + triangle-rich peer mesh = botnet signature")
}
