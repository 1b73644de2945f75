package obs

import (
	"sync"
	"testing"
)

// TestJournalDrainPublishRace hammers concurrent Drain, Snapshot and
// the derived ServeSnapshot against per-strand publishers and checks the
// ring's delivery contract under the race detector: across every drain,
// no strand sequence number is returned twice, no event is torn (its
// payload always matches its Seq, in the drained events and in the
// derived tail alike), and every published event is either delivered by
// some drain or charged to the Dropped accounting — nothing is silently
// lost. The cumulative counts the publishes fold are exact at the end.
func TestJournalDrainPublishRace(t *testing.T) {
	const (
		strands   = 4
		perStrand = 128  // small ring: drains race real overwrites
		total     = 3000 // events each publisher strand emits
	)
	j := NewJournal(JournalConfig{PerStrand: perStrand}, strands)

	var wg sync.WaitGroup
	for si := 0; si < strands; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s := j.Strand(si)
			buf := make([]JournalEvent, 0, 32)
			seq := int64(0)
			for seq < total {
				buf = buf[:0]
				chunk := 1 + int(seq)%17
				for c := 0; c < chunk && seq < total; c++ {
					seq++
					// The payload encodes the publication position, so a
					// drained event's fields must agree with its derived
					// Seq; any mismatch is a torn read. Every third event
					// is tick-sampled, every ninth of those a forced
					// traced one (exemplar only).
					ev := JournalEvent{Batch: seq, DescentNs: seq * 3, ScanNs: seq, Sampled: seq%3 == 0}
					if seq%27 == 0 {
						tc := GenTrace(uint64(si), uint64(seq))
						ev.Forced, ev.TraceHi, ev.TraceLo, ev.StartNs = true, tc.TraceHi, tc.TraceLo, seq
					}
					buf = append(buf, ev)
				}
				s.Publish(buf)
			}
		}(si)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Snapshot hammer: non-consuming reads race the publishers and the
	// drainer; every event they see must still be internally consistent.
	snapStop := make(chan struct{})
	var snapWg sync.WaitGroup
	snapWg.Add(1)
	go func() {
		defer snapWg.Done()
		for {
			select {
			case <-snapStop:
				return
			default:
			}
			d := j.Snapshot()
			for i := range d.Events {
				ev := &d.Events[i]
				if ev.DescentNs != ev.Batch*3 || ev.ScanNs != ev.Batch {
					t.Errorf("snapshot tore event: %+v", ev)
					return
				}
			}
			snap := j.ServeSnapshot()
			if snap.Queries < snap.Sampled || int64(snap.Window.Window) > snap.Sampled ||
				snap.Latency.Count != snap.Sampled {
				t.Errorf("implausible serve snapshot: queries=%d sampled=%d window=%d count=%d",
					snap.Queries, snap.Sampled, snap.Window.Window, snap.Latency.Count)
				return
			}
			for i := range snap.Tail {
				ev := &snap.Tail[i]
				if ev.Batch != int64(ev.Seq) || ev.DescentNs != ev.Batch*3 || ev.Batch%3 != 0 ||
					ev.Forced || (i > 0 && ev.LatencyNs > snap.Tail[i-1].LatencyNs) {
					t.Errorf("derived tail tore or misordered event %d: %+v", i, ev)
					return
				}
			}
			for _, ex := range snap.LatencyExemplars {
				if ex.ValueNs%(4*27) != 0 || ex.UnixNs*4 != ex.ValueNs {
					t.Errorf("exemplar not a forced event: %+v", ex)
					return
				}
			}
		}
	}()

	seen := make([]map[uint64]bool, strands)
	for i := range seen {
		seen[i] = map[uint64]bool{}
	}
	record := func(d JournalDrain) {
		for i := range d.Events {
			ev := &d.Events[i]
			if ev.Batch != int64(ev.Seq) || ev.DescentNs != ev.Batch*3 ||
				ev.ScanNs != ev.Batch || ev.LatencyNs != ev.Batch*4 {
				t.Fatalf("drained event torn: %+v", ev)
			}
			if seen[ev.Strand][ev.Seq] {
				t.Fatalf("strand %d seq %d drained twice", ev.Strand, ev.Seq)
			}
			seen[ev.Strand][ev.Seq] = true
		}
	}
	draining := true
	for draining {
		select {
		case <-done:
			draining = false
		default:
		}
		record(j.Drain())
	}
	record(j.Drain()) // the final sweep after all publishers stopped
	close(snapStop)
	snapWg.Wait()

	acc := j.Accounting()
	if acc.Published != strands*total {
		t.Fatalf("published %d, want %d", acc.Published, strands*total)
	}
	// Tick-sampled: seq%3 == 0 minus the forced seq%27 == 0 subset.
	snap := j.ServeSnapshot()
	if want := int64(strands * (total/3 - total/27)); snap.Sampled != want || snap.Queries != strands*total {
		t.Fatalf("serve snapshot counts queries=%d sampled=%d, want %d/%d",
			snap.Queries, snap.Sampled, strands*total, want)
	}
	var delivered uint64
	for si, m := range seen {
		delivered += uint64(len(m))
		for seq := range m {
			if seq == 0 || seq > total {
				t.Fatalf("strand %d delivered out-of-range seq %d", si, seq)
			}
		}
	}
	// The conservation law: every published event was either delivered
	// by exactly one drain or counted as dropped (overwritten unseen).
	if delivered+acc.Dropped != acc.Published {
		t.Fatalf("delivered %d + dropped %d != published %d — events lost without accounting",
			delivered, acc.Dropped, acc.Published)
	}
	if delivered == 0 {
		t.Fatal("drains never raced a publish")
	}
}
