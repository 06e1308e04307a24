package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Decision is one completed adaptation decision: the causal chain from
// trigger event through controller gates and solver run to the
// reallocation outcome, plus the convergence timestamp once the delivered
// rate recovered. Decisions marshal to stable JSON (spans and attributes
// are ordered slices), so journal dumps diff cleanly across runs.
type Decision struct {
	Trace TraceID `json:"trace"`
	App   string  `json:"app"`
	// Trigger is the event kind that opened the trace ("member_dead",
	// "rate_below_threshold", …, or "retry_backoff" for a controller
	// retry of previously failed work).
	Trigger string `json:"trigger"`
	// Cause is the human-readable cause of the trigger (the dead host,
	// the starving substreams).
	Cause string `json:"cause,omitempty"`
	// Mode is the action the controller launched: "incremental" or
	// "full". Empty when the decision completed without launching
	// (the application vanished).
	Mode string `json:"mode,omitempty"`
	// Outcome is "success" or "failed".
	Outcome string `json:"outcome"`
	Err     string `json:"err,omitempty"`

	TriggeredAt time.Duration `json:"triggeredAt"`
	CompletedAt time.Duration `json:"completedAt"`
	// Converged reports that the application's delivered rate was next
	// observed at or above its threshold after the decision completed;
	// ConvergedAt is when.
	Converged   bool          `json:"converged"`
	ConvergedAt time.Duration `json:"convergedAt,omitempty"`

	// Spans is the decision's causal chain, in creation order. Span 1 is
	// the root; gate, trigger, decide, solve and apply spans parent on it.
	Spans []Span `json:"spans"`
}

// Journal is a bounded ring of completed decisions plus the allocator for
// in-flight ones. It is safe for concurrent use: simulations write from
// the event loop, live nodes from the engine actor, and the admin
// endpoints read from HTTP handler goroutines.
type Journal struct {
	mu sync.Mutex
	// decisions grows on demand up to capacity, then wraps: head is the
	// oldest entry and the next to overwrite (0 while the ring grows).
	decisions []Decision
	capacity  int
	head      int
	total     int64
	evicted   int64
	nextTrace TraceID
}

// DefaultJournalCapacity is the per-node decision retention when the
// journal is created implicitly by enabling adaptation.
const DefaultJournalCapacity = 256

// NewJournal creates a journal retaining the most recent capacity
// completed decisions.
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{capacity: capacity}
}

// at returns the i'th oldest retained decision; caller holds j.mu.
func (j *Journal) at(i int) *Decision {
	return &j.decisions[(j.head+i)%len(j.decisions)]
}

// Begin opens a decision trace. The root span (ID 1) covers the whole
// decision; it is closed by Complete, which also appends the decision to
// the journal's ring.
func (j *Journal) Begin(now time.Duration, app, trigger, cause string) *ActiveDecision {
	j.mu.Lock()
	j.nextTrace++
	id := j.nextTrace
	j.mu.Unlock()
	a := &ActiveDecision{
		j: j,
		d: Decision{
			Trace:       id,
			App:         app,
			Trigger:     trigger,
			Cause:       cause,
			TriggeredAt: now,
		},
		nextSpan: 1,
	}
	a.d.Spans = append(a.d.Spans, Span{
		Trace: id, ID: 1, Name: "decision", Start: now,
		Attrs: []Attr{A("trigger", trigger), A("cause", cause)},
	})
	return a
}

// append commits one completed decision, evicting the oldest when full.
func (j *Journal) append(d Decision) {
	j.mu.Lock()
	if len(j.decisions) < j.capacity {
		j.decisions = append(j.decisions, d)
	} else {
		j.evicted++
		telJournalEvicted.Inc()
		j.decisions[j.head] = d
		j.head = (j.head + 1) % len(j.decisions)
	}
	j.total++
	j.mu.Unlock()
	telDecisions.With(d.Trigger, d.Outcome).Inc()
	telDecisionLatency.With(d.Trigger).ObserveDuration(d.CompletedAt - d.TriggeredAt)
}

// Converge marks every completed-but-unconverged successful decision of
// the application as converged at now: the delivered rate is back at or
// above threshold, so all of them have taken effect. It is a no-op when
// nothing is awaiting convergence.
func (j *Journal) Converge(app string, now time.Duration) {
	type obs struct {
		trigger string
		latency time.Duration
	}
	var marked []obs
	j.mu.Lock()
	for i := range j.decisions {
		d := j.at(i)
		if d.App != app || d.Outcome != "success" || d.Converged {
			continue
		}
		d.Converged = true
		d.ConvergedAt = now
		marked = append(marked, obs{d.Trigger, now - d.TriggeredAt})
	}
	j.mu.Unlock()
	for _, m := range marked {
		telDecisionConvergence.With(m.trigger).ObserveDuration(m.latency)
	}
}

// Decisions returns the retained decisions oldest-first. Spans are shared
// with the journal's storage; treat them as read-only.
func (j *Journal) Decisions() []Decision {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Decision, 0, len(j.decisions))
	for i := range j.decisions {
		out = append(out, *j.at(i))
	}
	return out
}

// Len returns the number of retained decisions.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.decisions)
}

// Total returns the number of decisions ever completed.
func (j *Journal) Total() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Evicted returns how many completed decisions the ring has overwritten.
func (j *Journal) Evicted() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.evicted
}

// LastByApp returns the most recent retained decision of every
// application.
func (j *Journal) LastByApp() map[string]Decision {
	out := make(map[string]Decision)
	for _, d := range j.Decisions() {
		out[d.App] = d
	}
	return out
}

// ActiveDecision is a decision trace being built. Methods are safe for
// concurrent use; Complete seals the trace (further spans are dropped).
type ActiveDecision struct {
	j        *Journal
	mu       sync.Mutex
	d        Decision
	nextSpan SpanID
	done     bool
}

// Trace returns the trace ID.
func (a *ActiveDecision) Trace() TraceID { return a.d.Trace }

// App returns the application the decision concerns.
func (a *ActiveDecision) App() string { return a.d.App }

// TriggeredAt returns when the trace was opened.
func (a *ActiveDecision) TriggeredAt() time.Duration { return a.d.TriggeredAt }

// Span appends a completed span parented on the root and returns its ID.
func (a *ActiveDecision) Span(name string, start, end time.Duration, attrs ...Attr) SpanID {
	return a.ChildSpan(1, name, start, end, attrs...)
}

// ChildSpan appends a completed span under an explicit parent.
func (a *ActiveDecision) ChildSpan(parent SpanID, name string, start, end time.Duration, attrs ...Attr) SpanID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return 0
	}
	a.nextSpan++
	id := a.nextSpan
	a.d.Spans = append(a.d.Spans, Span{
		Trace: a.d.Trace, ID: id, Parent: parent, Name: name,
		Start: start, End: end, Attrs: attrs,
	})
	return id
}

// Annotate appends attributes to the root span.
func (a *ActiveDecision) Annotate(attrs ...Attr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return
	}
	a.d.Spans[0].Attrs = append(a.d.Spans[0].Attrs, attrs...)
}

// Complete seals the trace with its outcome and commits it to the
// journal. Calling it again is a no-op.
func (a *ActiveDecision) Complete(now time.Duration, mode string, err error) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.d.Mode = mode
	a.d.CompletedAt = now
	a.d.Spans[0].End = now
	if err != nil {
		a.d.Outcome = "failed"
		a.d.Err = err.Error()
	} else {
		a.d.Outcome = "success"
	}
	d := a.d
	a.mu.Unlock()
	a.j.append(d)
}

// FormatDecision renders one decision as readable text: the summary line,
// the cause, then the span chain indented in time order.
func FormatDecision(d Decision) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %d app=%s trigger=%s mode=%s outcome=%s\n",
		d.Trace, d.App, d.Trigger, orDash(d.Mode), d.Outcome)
	fmt.Fprintf(&sb, "  triggered %v, completed %v (+%v)", d.TriggeredAt, d.CompletedAt, d.CompletedAt-d.TriggeredAt)
	if d.Converged {
		fmt.Fprintf(&sb, ", converged %v (+%v)", d.ConvergedAt, d.ConvergedAt-d.TriggeredAt)
	} else {
		sb.WriteString(", not converged")
	}
	sb.WriteByte('\n')
	if d.Cause != "" {
		fmt.Fprintf(&sb, "  cause: %s\n", d.Cause)
	}
	if d.Err != "" {
		fmt.Fprintf(&sb, "  error: %s\n", d.Err)
	}
	spans := append([]Span(nil), d.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		fmt.Fprintf(&sb, "  %12v %-10s", s.Start, s.Name)
		if s.End > s.Start {
			fmt.Fprintf(&sb, " +%v", s.End-s.Start)
		}
		for _, at := range s.Attrs {
			fmt.Fprintf(&sb, " %s=%s", at.Key, at.Val)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatDecisions renders a decision list as readable text, one block per
// decision.
func FormatDecisions(ds []Decision) string {
	var sb strings.Builder
	for i, d := range ds {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(FormatDecision(d))
	}
	return sb.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
