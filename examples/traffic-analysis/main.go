// Traffic analysis: the paper's motivating application, through the
// public API. Synthetic power-law traffic over the IPv4 space streams
// into one-second event-time windows, each its own hierarchical cascade,
// rolled up into four-second epochs. Every sealed window publishes its
// summary to a subscription; its supernodes (the heaviest destinations)
// come from a time-range query. The program checks its own answer: it
// exits non-zero unless the sealed windows' packets add up to the number
// of edges sent.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"hhgb"
	"hhgb/internal/powerlaw"
)

func main() {
	log.SetFlags(0)

	const (
		windows   = 8
		perWindow = 50_000
		rollUp    = 4
	)
	wm, err := hhgb.NewWindowed(hhgb.IPv4Space, time.Second, hhgb.WithRollUps(rollUp))
	if err != nil {
		log.Fatal(err)
	}
	sub := wm.Subscribe(0)

	// One batch per window, stamped with the window's start. The next
	// window's first batch moves the watermark past this window's end,
	// which seals it.
	gen, err := powerlaw.NewRMAT(32, 0xbeef)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2020, 5, 18, 0, 0, 0, 0, time.UTC)
	src, dst := make([]uint64, perWindow), make([]uint64, perWindow)
	for w := 0; w < windows; w++ {
		if err := gen.Fill(src, dst); err != nil {
			log.Fatal(err)
		}
		if err := wm.Append(start.Add(time.Duration(w)*time.Second), src, dst); err != nil {
			log.Fatal(err)
		}
	}
	if err := wm.Seal(start.Add(windows * time.Second)); err != nil {
		log.Fatal(err)
	}
	// Close ends the subscription once its queued summaries are read;
	// the windows stay queryable.
	if err := wm.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %d windows of %d flows each\n\n", windows, perWindow)
	var sealed int
	var packets uint64
	for s, ok := sub.Next(); ok; s, ok = sub.Next() {
		sealed++
		packets += s.Packets
		fmt.Printf("%s: %6d entries  %6d srcs  %6d dsts  %6d pkts\n",
			s.Start.Format(time.TimeOnly), s.Entries, s.Sources, s.Destinations, s.Packets)
		printSupernodes(wm, s.Start, s.End)
	}

	// An aligned epoch is answered by its one roll-up window.
	epoch, err := wm.QueryRange(start, start.Add(rollUp*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	epochPackets, err := epoch.TotalPackets()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst %d s: %d pkts from %d window(s)\n", rollUp, epochPackets, epoch.Windows())

	if sealed != windows || packets != windows*perWindow {
		log.Fatalf("conservation broken: %d windows sealed with %d pkts, sent %d windows of %d",
			sealed, packets, windows, perWindow)
	}
	fmt.Printf("conservation: %d sealed windows hold all %d packets sent\n", sealed, packets)
}

// printSupernodes prints the three heaviest destinations in [t0, t1).
func printSupernodes(wm *hhgb.Windowed, t0, t1 time.Time) {
	r, err := wm.QueryRange(t0, t1)
	if err != nil {
		log.Fatal(err)
	}
	top, err := r.TopDestinations(3)
	if err != nil {
		log.Fatal(err)
	}
	for rank, e := range top {
		id := uint32(e.ID)
		ip := netip.AddrFrom4([4]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)})
		fmt.Printf("  supernode %d: %-15s %6d pkts\n", rank+1, ip, e.Value)
	}
}
