package trace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalDecisionLifecycle(t *testing.T) {
	j := NewJournal(8)
	a := j.Begin(10*time.Millisecond, "app-1", "member_dead", "member dead: 0a")
	if a.Trace() != 1 || a.App() != "app-1" || a.TriggeredAt() != 10*time.Millisecond {
		t.Fatalf("active decision header wrong: %d %s %v", a.Trace(), a.App(), a.TriggeredAt())
	}
	a.Span("decide", 10*time.Millisecond, 11*time.Millisecond, A("mode", "incremental"))
	a.Span("solve", 11*time.Millisecond, 12*time.Millisecond, AInt("iterations", 4))
	if j.Len() != 0 {
		t.Fatalf("decision visible before Complete: Len = %d", j.Len())
	}
	a.Complete(30*time.Millisecond, "incremental", nil)
	a.Complete(40*time.Millisecond, "full", errors.New("ignored")) // idempotent

	ds := j.Decisions()
	if len(ds) != 1 {
		t.Fatalf("Len = %d, want 1", len(ds))
	}
	d := ds[0]
	if d.Trigger != "member_dead" || d.Cause != "member dead: 0a" ||
		d.Mode != "incremental" || d.Outcome != "success" || d.Err != "" {
		t.Fatalf("decision = %+v", d)
	}
	if d.TriggeredAt != 10*time.Millisecond || d.CompletedAt != 30*time.Millisecond {
		t.Fatalf("timestamps = %v..%v", d.TriggeredAt, d.CompletedAt)
	}
	if len(d.Spans) != 3 {
		t.Fatalf("spans = %d, want root+decide+solve", len(d.Spans))
	}
	root := d.Spans[0]
	if root.ID != 1 || root.Parent != 0 || root.Name != "decision" || root.End != 30*time.Millisecond {
		t.Fatalf("root span = %+v", root)
	}
	for _, s := range d.Spans[1:] {
		if s.Parent != 1 {
			t.Fatalf("span %q parent = %d, want root", s.Name, s.Parent)
		}
	}
	if v, ok := d.Spans[2].Attr("iterations"); !ok || v != "4" {
		t.Fatalf("solve iterations attr = %q %v", v, ok)
	}
	if d.Converged {
		t.Fatal("converged before Converge")
	}

	j.Converge("app-1", 45*time.Millisecond)
	d = j.Decisions()[0]
	if !d.Converged || d.ConvergedAt != 45*time.Millisecond {
		t.Fatalf("after Converge: %+v", d)
	}
	// Converging again must not move the timestamp.
	j.Converge("app-1", 60*time.Millisecond)
	if got := j.Decisions()[0].ConvergedAt; got != 45*time.Millisecond {
		t.Fatalf("ConvergedAt moved to %v", got)
	}
}

func TestJournalFailedDecisionsDoNotConverge(t *testing.T) {
	j := NewJournal(4)
	a := j.Begin(0, "app-1", "rate_below_threshold", "substreams [0] below threshold")
	a.Complete(time.Millisecond, "full", errors.New("no feasible placement"))
	j.Converge("app-1", 2*time.Millisecond)
	d := j.Decisions()[0]
	if d.Outcome != "failed" || d.Err == "" {
		t.Fatalf("decision = %+v", d)
	}
	if d.Converged {
		t.Fatal("failed decision marked converged")
	}
}

func TestJournalEviction(t *testing.T) {
	j := NewJournal(2)
	for i := 0; i < 3; i++ {
		a := j.Begin(time.Duration(i)*time.Second, "app", "member_dead", "")
		a.Complete(time.Duration(i)*time.Second+time.Millisecond, "full", nil)
	}
	if j.Len() != 2 || j.Total() != 3 || j.Evicted() != 1 {
		t.Fatalf("Len=%d Total=%d Evicted=%d", j.Len(), j.Total(), j.Evicted())
	}
	ds := j.Decisions()
	if ds[0].Trace != 2 || ds[1].Trace != 3 {
		t.Fatalf("retained traces %d,%d, want 2,3 (oldest evicted)", ds[0].Trace, ds[1].Trace)
	}
}

// TestJournalRingStates walks one journal through empty, partly full, full
// and wrapped: the ring grows on demand, so each state has its own index
// arithmetic, and an empty ring must not divide by its zero length.
func TestJournalRingStates(t *testing.T) {
	j := NewJournal(3)
	if len(j.Decisions()) != 0 || j.Len() != 0 || j.Evicted() != 0 {
		t.Fatal("empty journal reported decisions")
	}
	j.Converge("app", time.Second) // must not touch the empty ring
	if len(j.LastByApp()) != 0 {
		t.Fatal("empty journal has a last decision")
	}
	traces := func() []TraceID {
		var out []TraceID
		for _, d := range j.Decisions() {
			out = append(out, d.Trace)
		}
		return out
	}
	for i, want := range [][]TraceID{{1}, {1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}, {5, 6, 7}} {
		a := j.Begin(time.Duration(i)*time.Second, "app", "member_dead", "")
		a.Complete(time.Duration(i)*time.Second+time.Millisecond, "full", nil)
		var evicted int64 // zero until the ring is full
		if i >= 3 {
			evicted = int64(i - 2)
		}
		if got := traces(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %d: Decisions = %v, want %v", i+1, got, want)
		}
		if j.Len() != len(want) || j.Evicted() != evicted || j.Total() != int64(i+1) {
			t.Fatalf("after %d: Len=%d Evicted=%d Total=%d", i+1, j.Len(), j.Evicted(), j.Total())
		}
	}
	j.Converge("app", time.Hour)
	for _, d := range j.Decisions() {
		if !d.Converged {
			t.Fatalf("wrapped ring missed decision %d on Converge", d.Trace)
		}
	}
	if len(j.decisions) != 3 {
		t.Fatalf("ring grew to %d entries, capacity 3", len(j.decisions))
	}
}

func TestJournalLastByApp(t *testing.T) {
	j := NewJournal(8)
	for i, app := range []string{"a", "b", "a"} {
		d := j.Begin(time.Duration(i)*time.Second, app, "member_dead", "")
		d.Complete(time.Duration(i)*time.Second+time.Millisecond, "incremental", nil)
	}
	last := j.LastByApp()
	if len(last) != 2 || last["a"].Trace != 3 || last["b"].Trace != 2 {
		t.Fatalf("LastByApp = %+v", last)
	}
}

func TestSealedDecisionDropsLateSpans(t *testing.T) {
	j := NewJournal(2)
	a := j.Begin(0, "app", "breaker_open", "breaker open: 0b")
	a.Complete(time.Millisecond, "incremental", nil)
	if id := a.Span("late", 2*time.Millisecond, 3*time.Millisecond); id != 0 {
		t.Fatalf("late span got ID %d", id)
	}
	a.Annotate(A("late", "true"))
	d := j.Decisions()[0]
	if len(d.Spans) != 1 {
		t.Fatalf("spans = %d after sealed appends", len(d.Spans))
	}
	if _, ok := d.Spans[0].Attr("late"); ok {
		t.Fatal("late annotation leaked into sealed decision")
	}
}

func TestFormatDecision(t *testing.T) {
	j := NewJournal(2)
	a := j.Begin(100*time.Millisecond, "chain", "member_dead", "member dead: 0042")
	a.Span("decide", 100*time.Millisecond, 101*time.Millisecond, A("mode", "incremental"))
	a.Complete(120*time.Millisecond, "incremental", nil)
	j.Converge("chain", 500*time.Millisecond)
	out := FormatDecision(j.Decisions()[0])
	for _, want := range []string{
		"app=chain", "trigger=member_dead", "mode=incremental", "outcome=success",
		"cause: member dead: 0042", "converged 500ms (+400ms)", "decide", "mode=incremental",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatDecision missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentJournal is the -race regression test for the decision
// journal: span appends on one active decision race admin reads and other
// decisions completing.
func TestConcurrentJournal(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	a := j.Begin(0, "shared", "member_dead", "")
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a.Span("solve", time.Duration(i), time.Duration(i+1), AInt("w", int64(w)))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d := j.Begin(time.Duration(i), "other", "breaker_open", "")
				d.Complete(time.Duration(i+1), "full", nil)
				_ = j.Decisions()
				_ = j.LastByApp()
				j.Converge("other", time.Duration(i+2))
			}
		}(w)
	}
	wg.Wait()
	a.Complete(time.Second, "incremental", nil)
	var shared *Decision
	for _, d := range j.Decisions() {
		if d.App == "shared" {
			d := d
			shared = &d
		}
	}
	if shared == nil {
		t.Fatal("shared decision missing")
	}
	if len(shared.Spans) != 1+8*200 {
		t.Fatalf("spans = %d, want %d (lost concurrent appends)", len(shared.Spans), 1+8*200)
	}
	seen := make(map[SpanID]bool)
	for _, s := range shared.Spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}
