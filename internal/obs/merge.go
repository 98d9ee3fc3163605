package obs

import (
	"sort"
	"strings"

	"nectar/internal/sim"
)

// Deterministic merging of per-shard observability output (sharded
// execution runs one Observer per shard kernel).
//
// The guiding invariant: a sequential run and a sharded run of the same
// cluster produce the same *multiset* of trace events, captured packets,
// and metric observations; only the interleaving of records that share a
// virtual timestamp — and the per-Observer span numbering — can differ.
// The canonicalizers below therefore order records by content (virtual
// time first) and renumber span ids by first appearance, so both runs
// render to identical bytes.

// MergeSnapshots exports one Snapshot over several registries. Each
// registry contributes sorted streams: its scalar metrics in key order,
// and one stream per gauge family (names in name order, members in scope
// order within each name). The export is one k-way merge of all
// of them, in (layer, name, scope, kind) order. Entries under one key sum
// wherever they come from — counters and gauges add, histograms merge at
// bucket level — so merging the registries of a sharded run yields
// byte-identical JSON to the sequential run's single-registry snapshot.
// The number of allocations does not grow with the number of entries:
// the Entries slice and the family value buffer are allocated once, and
// there is one HistStats per histogram entry.
func MergeSnapshots(at sim.Time, regs ...*Registry) *Snapshot {
	s := &Snapshot{AtUS: at.Micros()}
	var cs []cursor
	total, famTotal := 0, 0
	for _, r := range regs {
		if r == nil {
			continue
		}
		sc := r.sortedScalars()
		cs = append(cs, cursor{n: len(sc), scalars: sc})
		total += len(sc)
		for _, f := range r.families {
			f.sort()
			c := cursor{fam: f, members: f.size()}
			c.layer, c.names, c.byName = f.spec()
			c.n = len(c.names) * c.members
			cs = append(cs, c)
			total += c.n
			famTotal += c.n
		}
	}
	if total == 0 {
		return s
	}
	// One buffer holds every family's values, read member by member: the
	// stream then walks it in order instead of visiting each member once
	// per name.
	vals := make([]uint64, famTotal)
	h := make([]*cursor, 0, len(cs))
	for i := range cs {
		c := &cs[i]
		if c.fam != nil {
			c.vals, vals = vals[:c.n], vals[c.n:]
			c.fam.read(c.vals)
		}
		if c.next() {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	s.Entries = make([]Entry, 0, total)
	for len(h) > 0 {
		key := h[0].head
		var v uint64
		var hist *Histogram
		merged := false
		for len(h) > 0 && h[0].head == key {
			top := h[0]
			v += top.v
			if top.h != nil {
				if hist == nil {
					hist = top.h
				} else {
					if !merged { // copy before merging: hist is still a registered histogram
						m := &Histogram{}
						m.h.Merge(&hist.h)
						hist, merged = m, true
					}
					hist.h.Merge(&top.h.h)
				}
			}
			if !top.next() {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		e := Entry{Layer: string(key.layer), Name: key.name, Scope: key.scope, Kind: kindNames[key.kind], Value: v}
		if key.kind == kindHistogram {
			e.Hist = hist.Stats()
		}
		s.Entries = append(s.Entries, e)
	}
	return s
}

// cursor walks one sorted stream of a registry — its scalars, or one gauge
// family — holding the current entry in head, v and h.
type cursor struct {
	head metricKey
	v    uint64
	h    *Histogram

	i, n    int
	scalars []scalar

	fam     family // nil for the scalar stream
	layer   Layer
	names   []string
	byName  []int
	members int
	vals    []uint64 // the family's values, name-major (family.read)
}

// next loads the stream's next entry; false when the stream is done.
func (c *cursor) next() bool {
	if c.i == c.n {
		return false
	}
	if c.fam == nil {
		s := &c.scalars[c.i]
		c.head, c.h = s.key, s.h
		switch s.key.kind {
		case kindCounter:
			c.v = s.c.v
		case kindGauge:
			c.v = s.fn()
		default:
			c.v = 0
		}
	} else {
		name, j := c.byName[c.i/c.members], c.i%c.members
		c.head = metricKey{c.layer, c.names[name], c.fam.scope(j), kindGauge}
		c.v = c.vals[name*c.members+j]
	}
	c.i++
	return true
}

// siftDown restores the min-heap order of h (by head key) below i.
func siftDown(h []*cursor, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].head.compare(&h[m].head) < 0 {
			m = r
		}
		if h[i].head.compare(&h[m].head) <= 0 {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// eventContentLess orders events by content: virtual time first, then
// every content field. Span/Parent ids are deliberately excluded — they
// are per-Observer counters with no cross-run meaning.
func eventContentLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Arg != b.Arg {
		return a.Arg < b.Arg
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	return a.Kind < b.Kind
}

// CanonicalTrace merges per-stream event slices (one per shard; pass a
// single stream to canonicalize a sequential trace) into one canonical
// trace: stable-sorted by content with virtual time as the primary key,
// with Span/Parent ids renumbered densely by first appearance. Two runs
// that emit the same events — regardless of sharding — canonicalize to
// identical slices.
func CanonicalTrace(streams ...[]Event) []Event {
	type tagged struct {
		e      Event
		stream int
	}
	var all []tagged
	for si, s := range streams {
		for _, e := range s {
			all = append(all, tagged{e, si})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return eventContentLess(all[i].e, all[j].e) })
	type spanKey struct {
		stream int
		id     SpanID
	}
	renum := make(map[spanKey]SpanID)
	next := SpanID(0)
	newID := func(stream int, id SpanID) SpanID {
		if id == 0 {
			return 0
		}
		k := spanKey{stream, id}
		n, ok := renum[k]
		if !ok {
			next++
			n = next
			renum[k] = n
		}
		return n
	}
	out := make([]Event, len(all))
	for i, t := range all {
		e := t.e
		e.Span = newID(t.stream, e.Span)
		e.Parent = newID(t.stream, e.Parent)
		out[i] = e
	}
	return out
}

// FormatEvents renders events one per line (Event.String), the form the
// determinism tests compare byte-for-byte.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CanonicalCapture merges per-shard wire captures into one Capture whose
// packets are stable-sorted by content (virtual time, then link, then the
// decoded fields). Raw frames are not carried over.
func CanonicalCapture(caps ...*Capture) *Capture {
	merged := &Capture{}
	for _, c := range caps {
		if c == nil {
			continue
		}
		merged.Packets = append(merged.Packets, c.Packets...)
	}
	sort.SliceStable(merged.Packets, func(i, j int) bool {
		a, b := merged.Packets[i], merged.Packets[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		if a.Bytes != b.Bytes {
			return a.Bytes < b.Bytes
		}
		if a.Summary != b.Summary {
			return a.Summary < b.Summary
		}
		if a.Dropped != b.Dropped {
			return b.Dropped
		}
		return a.Corrupted != b.Corrupted && b.Corrupted
	})
	return merged
}
