package shard

import (
	"fmt"
	"sync"
	"testing"
)

// TestFrontierAcceptCommitRace races producers advancing their sessions'
// accepted frontiers against two barriers that snapshot and commit
// concurrently, so an older snapshot can commit after a newer one. Every
// observation must keep durable <= accepted <= mint, durable never moves
// backwards, and a final barrier makes every accepted seq durable.
func TestFrontierAcceptCommitRace(t *testing.T) {
	const (
		sessions = 4
		frames   = 2000
	)
	var f Frontier
	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("sess-%d", i)
	}

	var producers sync.WaitGroup
	for _, name := range names {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for seq := uint64(1); seq <= frames; seq++ {
				if f.Dup(name, seq) {
					t.Errorf("%s: fresh seq %d reported as a duplicate", name, seq)
					return
				}
				f.Accept(name, seq)
			}
		}()
	}
	stop := make(chan struct{})
	var barriers sync.WaitGroup
	for b := 0; b < 2; b++ {
		barriers.Add(1)
		go func() {
			defer barriers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Commit(f.Snapshot())
			}
		}()
	}
	barriers.Add(1)
	go func() {
		defer barriers.Done()
		last := make(map[string]uint64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range names {
				// Read order matters: each later read can only see a
				// frontier at least as far along.
				d := f.Resume(name, true)
				a := f.Resume(name, false)
				m := f.Mint(name)
				if d > a || a > m {
					t.Errorf("%s: durable %d, accepted %d, mint %d out of order", name, d, a, m)
					return
				}
				if d < last[name] {
					t.Errorf("%s: durable frontier moved back %d -> %d", name, last[name], d)
					return
				}
				last[name] = d
			}
		}
	}()
	producers.Wait()
	close(stop)
	barriers.Wait()

	f.Commit(f.Snapshot())
	for _, name := range names {
		if d := f.Resume(name, true); d != frames {
			t.Fatalf("%s: durable frontier %d after the final barrier, want %d", name, d, frames)
		}
		if !f.Dup(name, frames) || f.Dup(name, frames+1) {
			t.Fatalf("%s: dup test wrong at the frontier %d", name, frames)
		}
	}
	if got := f.DurableTable(); len(got) != sessions {
		t.Fatalf("durable table holds %d sessions, want %d", len(got), sessions)
	}
}
