package overlay

import (
	"sort"

	"rasc.dev/rasc/internal/transport"
)

// NodeInfo is a reference to a remote overlay node.
type NodeInfo struct {
	ID   ID             `json:"id"`
	Addr transport.Addr `json:"addr"`
	// Cluster names the federation cluster the node belongs to. Empty in
	// flat (non-federated) deployments, so their wire and JSON encodings
	// are unchanged.
	Cluster string `json:"cluster,omitempty"`
}

// routingTable is the classic Pastry table: row r holds nodes that share a
// prefix of length r with the owner and differ in digit r. Rows are
// allocated on first insert (most of a small overlay's rows stay empty), so
// every reader must treat a nil row as empty.
type routingTable struct {
	owner ID
	rows  [NumDigits]*[DigitBase]*NodeInfo
}

// slot returns the address of the (row, col) entry, allocating the row.
func (t *routingTable) slot(row, col int) **NodeInfo {
	if t.rows[row] == nil {
		t.rows[row] = new([DigitBase]*NodeInfo)
	}
	return &t.rows[row][col]
}

// add inserts info if its slot is empty. It returns true if the table
// changed. Existing entries are kept (proximity-blind: first writer wins).
func (t *routingTable) add(info NodeInfo) bool {
	if info.ID == t.owner {
		return false
	}
	row := t.owner.CommonPrefixLen(info.ID)
	col := info.ID.Digit(row)
	if t.lookup(row, col) != nil {
		return false
	}
	cp := info
	*t.slot(row, col) = &cp
	return true
}

// lookup returns the entry for the given (row, digit), or nil.
func (t *routingTable) lookup(row, digit int) *NodeInfo {
	if t.rows[row] == nil {
		return nil
	}
	return t.rows[row][digit]
}

// replace overwrites the slot owning info's prefix with info.
func (t *routingTable) replace(info NodeInfo) {
	if info.ID == t.owner {
		return
	}
	row := t.owner.CommonPrefixLen(info.ID)
	col := info.ID.Digit(row)
	cp := info
	*t.slot(row, col) = &cp
}

// slotFor returns the (row, col) a peer belongs in.
func (t *routingTable) slotFor(id ID) (row, col int) {
	row = t.owner.CommonPrefixLen(id)
	if row == NumDigits {
		return NumDigits - 1, 0 // owner itself; caller filters
	}
	return row, id.Digit(row)
}

// remove deletes any entry with the given ID; it returns true if found.
func (t *routingTable) remove(id ID) bool {
	row := t.owner.CommonPrefixLen(id)
	if row == NumDigits {
		return false
	}
	col := id.Digit(row)
	if e := t.lookup(row, col); e != nil && e.ID == id {
		t.rows[row][col] = nil
		return true
	}
	return false
}

// row returns a copy of the entries at row r (used by the join protocol).
func (t *routingTable) row(r int) []NodeInfo {
	if t.rows[r] == nil {
		return nil
	}
	var out []NodeInfo
	for _, e := range t.rows[r] {
		if e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// all returns every entry in the table.
func (t *routingTable) all() []NodeInfo {
	var out []NodeInfo
	for _, row := range t.rows {
		if row == nil {
			continue
		}
		for _, e := range row {
			if e != nil {
				out = append(out, *e)
			}
		}
	}
	return out
}

// size counts populated slots.
func (t *routingTable) size() int {
	n := 0
	for _, row := range t.rows {
		if row == nil {
			continue
		}
		for _, e := range row {
			if e != nil {
				n++
			}
		}
	}
	return n
}

// leafSet holds the owner's nearest ring neighbors: up to half successors
// (clockwise) and half predecessors (counter-clockwise).
type leafSet struct {
	owner ID
	half  int
	cw    []NodeInfo // sorted by clockwise distance from owner, ascending
	ccw   []NodeInfo // sorted by counter-clockwise distance, ascending
}

func newLeafSet(owner ID, size int) *leafSet {
	return &leafSet{owner: owner, half: size / 2}
}

// add inserts info into the appropriate side if it is among the closest
// `half` nodes on that side. Returns true if the set changed.
func (l *leafSet) add(info NodeInfo) bool {
	if info.ID == l.owner {
		return false
	}
	cw := l.insert(&l.cw, info, true)
	ccw := l.insert(&l.ccw, info, false)
	return cw || ccw
}

// dist is x's ring distance from the owner: clockwise for the cw side,
// counter-clockwise otherwise.
func (l *leafSet) dist(x ID, clockwise bool) ID {
	if clockwise {
		return CWDist(l.owner, x)
	}
	return CWDist(x, l.owner)
}

// insert places info in side, kept sorted by ascending distance and
// trimmed to half entries, and reports whether it was added. Distances
// from the owner are distinct per ID, so an equal distance means info is
// already present.
func (l *leafSet) insert(side *[]NodeInfo, info NodeInfo, clockwise bool) bool {
	s := *side
	d := l.dist(info.ID, clockwise)
	if len(s) >= l.half && (l.half == 0 || l.dist(s[l.half-1].ID, clockwise).Cmp(d) < 0) {
		return false // full, and every member is closer
	}
	i := sort.Search(len(s), func(i int) bool { return l.dist(s[i].ID, clockwise).Cmp(d) >= 0 })
	if i < len(s) && s[i].ID == info.ID {
		return false
	}
	if len(s) < l.half {
		s = append(s, NodeInfo{})
	}
	copy(s[i+1:], s[i:])
	s[i] = info
	*side = s
	return true
}

// remove deletes id from both sides; returns true if present.
func (l *leafSet) remove(id ID) bool {
	removed := false
	filter := func(side []NodeInfo) []NodeInfo {
		out := side[:0]
		for _, e := range side {
			if e.ID == id {
				removed = true
				continue
			}
			out = append(out, e)
		}
		return out
	}
	l.cw = filter(l.cw)
	l.ccw = filter(l.ccw)
	return removed
}

// covers reports whether key falls inside the leaf set's ring segment
// [furthest ccw, furthest cw]. When the two sides overlap (the same node
// appears on both), the known nodes span the whole ring and every key is
// covered.
func (l *leafSet) covers(key ID) bool {
	if len(l.cw) == 0 && len(l.ccw) == 0 {
		return true
	}
	for _, a := range l.cw {
		for _, b := range l.ccw {
			if a.ID == b.ID {
				return true
			}
		}
	}
	lo := l.owner
	if len(l.ccw) > 0 {
		lo = l.ccw[len(l.ccw)-1].ID
	}
	hi := l.owner
	if len(l.cw) > 0 {
		hi = l.cw[len(l.cw)-1].ID
	}
	return CWDist(lo, key).Cmp(CWDist(lo, hi)) <= 0
}

// closest returns the member (or the owner, flagged by ok=false) closest to
// key among owner ∪ leafset.
func (l *leafSet) closest(key ID) (best NodeInfo, ok bool) {
	bestID := l.owner
	for _, e := range l.all() {
		if Closer(key, e.ID, bestID) {
			bestID = e.ID
			best = e
			ok = true
		}
	}
	return best, ok
}

// all returns the members of both sides, deduplicated.
func (l *leafSet) all() []NodeInfo {
	seen := make(map[ID]bool, len(l.cw)+len(l.ccw))
	var out []NodeInfo
	for _, e := range l.cw {
		if !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	for _, e := range l.ccw {
		if !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	return out
}

func (l *leafSet) size() int { return len(l.all()) }
