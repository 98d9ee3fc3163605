package obs

// Edge cases of the sharded-observability canonicalizers: merging no
// registries, merging exactly one (which must reproduce the sequential
// snapshot byte for byte), histogram bucket composition across shards,
// and the tie/renumbering rules of CanonicalTrace and CanonicalCapture.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nectar/internal/sim"
)

// referenceSnapshot is the map-and-sort export that MergeSnapshots
// replaced, kept as the specification the streaming merge is checked
// against: every registry's metrics hash into one map per kind (equal
// keys sum, histograms merge at bucket level), and the entries sort by
// (layer, name, scope, kind).
func referenceSnapshot(at sim.Time, regs ...*Registry) *Snapshot {
	type key struct {
		layer       Layer
		name, scope string
	}
	s := &Snapshot{AtUS: at.Micros()}
	counters := make(map[key]uint64)
	gauges := make(map[key]uint64)
	gaugeSeen := make(map[key]bool)
	hists := make(map[key]*Histogram)
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, sc := range r.scalars {
			k := key{sc.key.layer, sc.key.name, sc.key.scope}
			switch sc.key.kind {
			case kindCounter:
				counters[k] += sc.c.v
			case kindGauge:
				gauges[k] += sc.fn()
				gaugeSeen[k] = true
			case kindHistogram:
				m := hists[k]
				if m == nil {
					m = &Histogram{}
					hists[k] = m
				}
				m.h.Merge(&sc.h.h)
			}
		}
		for _, f := range r.families {
			layer, names, _ := f.spec()
			n := f.size()
			vals := make([]uint64, len(names)*n)
			f.read(vals)
			for j := 0; j < n; j++ {
				for i, name := range names {
					k := key{layer, name, f.scope(j)}
					gauges[k] += vals[i*n+j]
					gaugeSeen[k] = true
				}
			}
		}
	}
	for k, v := range counters {
		s.Entries = append(s.Entries, Entry{string(k.layer), k.name, k.scope, "counter", v, nil})
	}
	for k := range gaugeSeen {
		s.Entries = append(s.Entries, Entry{string(k.layer), k.name, k.scope, "gauge", gauges[k], nil})
	}
	for k, h := range hists {
		s.Entries = append(s.Entries, Entry{string(k.layer), k.name, k.scope, "histogram", 0, h.Stats()})
	}
	sort.Slice(s.Entries, func(i, j int) bool {
		a, b := s.Entries[i], s.Entries[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		return a.Kind < b.Kind
	})
	return s
}

// testMember is a gauge-family member whose values the tests set directly.
type testMember struct{ v [3]uint64 }

// Two families in one layer, with names that interleave with each other
// and coincide with scalar gauge names, so the merge has to interleave
// family and scalar streams entry by entry.
var (
	testLinks = NewGaugeFamily(LayerFiber, []string{"frames", "bytes", "dropped"},
		func(m *testMember, i int) uint64 { return m.v[i] })
	testHubs = NewGaugeFamily(LayerFiber, []string{"hub_forwarded", "corrupted"},
		func(m *testMember, i int) uint64 { return m.v[i] })
)

// registerRandom adds n random registrations to r: counters, closure
// gauges, histograms and members of both families, drawn from small pools
// of layers, names and scopes so that keys repeat within a registry,
// across registries, and across kinds.
func registerRandom(rng *rand.Rand, r *Registry, n int) {
	layers := []Layer{LayerFiber, LayerTCP, LayerMailbox}
	names := []string{"frames", "bytes", "hub_forwarded", "segs_out", "depth", "zz"}
	scope := func() string { return fmt.Sprintf("s%d", rng.Intn(12)) }
	for i := 0; i < n; i++ {
		layer, name := layers[rng.Intn(len(layers))], names[rng.Intn(len(names))]
		switch rng.Intn(5) {
		case 0:
			r.Counter(layer, name, scope()).Add(uint64(rng.Intn(100)))
		case 1:
			v := uint64(rng.Intn(100))
			r.Gauge(layer, name, scope(), func() uint64 { return v })
		case 2:
			h := r.Histogram(layer, name, scope())
			for k := rng.Intn(4); k > 0; k-- {
				h.Observe(sim.Duration(rng.Intn(1e6)))
			}
		case 3:
			testLinks.Join(r, scope(), &testMember{[3]uint64{uint64(rng.Intn(9)), uint64(rng.Intn(9)), uint64(rng.Intn(9))}})
		case 4:
			testHubs.Join(r, scope(), &testMember{[3]uint64{uint64(rng.Intn(9)), uint64(rng.Intn(9))}})
		}
	}
}

// TestMergeSnapshotsMatchesReference compares the streaming merge with
// referenceSnapshot on randomized registries: 1-4 registries (some nil,
// some empty), every kind of registration, and a second round of
// registrations after the first snapshot, which must invalidate the
// cached key orders. The JSON must be byte-identical.
func TestMergeSnapshotsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		regs := make([]*Registry, 1+rng.Intn(4))
		for i := range regs {
			if rng.Intn(6) == 0 {
				continue // nil shard
			}
			regs[i] = NewRegistry()
			registerRandom(rng, regs[i], rng.Intn(60))
		}
		at := sim.Time(trial) * sim.Time(sim.Microsecond)
		for round := 0; round < 2; round++ {
			merged, ref := MergeSnapshots(at, regs...), referenceSnapshot(at, regs...)
			got, want := merged.JSON(), ref.JSON()
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d round %d: merge differs from reference:\nmerge: %s\nreference: %s", trial, round, got, want)
			}
			if !merged.Equal(ref) {
				t.Fatalf("trial %d round %d: Equal disagrees with identical JSON", trial, round)
			}
			if regs[0] != nil {
				got, want = regs[0].Snapshot(at).JSON(), referenceSnapshot(at, regs[0]).JSON()
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d round %d: snapshot differs from reference:\nsnapshot: %s\nreference: %s", trial, round, got, want)
				}
			}
			for _, r := range regs {
				if r != nil {
					registerRandom(rng, r, rng.Intn(20))
				}
			}
		}
	}
}

// TestDuplicateKeysSumWithinRegistry pins the rule for a key registered
// twice in one registry — two links of one kernel with the same name, or
// two gauges under one key: the values sum, as they do across the
// registries of a sharded run, instead of the later one hiding the
// earlier.
func TestDuplicateKeysSumWithinRegistry(t *testing.T) {
	r := NewRegistry()
	testLinks.Join(r, "up", &testMember{[3]uint64{3, 300, 1}})
	testLinks.Join(r, "down", &testMember{[3]uint64{5, 500, 0}})
	testLinks.Join(r, "up", &testMember{[3]uint64{4, 400, 2}})
	r.Gauge(LayerRMP, "sent", "cab0", func() uint64 { return 2 })
	r.Gauge(LayerRMP, "sent", "cab0", func() uint64 { return 5 })
	r.Counter(LayerTCP, "segs_out", "cab0").Add(1)
	r.Counter(LayerTCP, "segs_out", "cab0").Add(10)
	r.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(sim.Microsecond)
	r.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(3 * sim.Microsecond)

	s := r.Snapshot(0)
	for _, c := range []struct {
		layer       Layer
		name, scope string
		want        uint64
	}{
		{LayerFiber, "frames", "up", 7},
		{LayerFiber, "bytes", "up", 700},
		{LayerFiber, "dropped", "up", 3},
		{LayerFiber, "frames", "down", 5},
		{LayerRMP, "sent", "cab0", 7},
		{LayerTCP, "segs_out", "cab0", 11},
	} {
		if got := s.Value(c.layer, c.name, c.scope); got != c.want {
			t.Errorf("%s/%s/%s = %d, want %d", c.layer, c.name, c.scope, got, c.want)
		}
	}
	if e, ok := s.Get(LayerTCP, "ack_rtt", "cab0"); !ok || e.Hist.Count != 2 || e.Hist.MaxUS != 3 {
		t.Errorf("ack_rtt = %+v, want both observations", e.Hist)
	}
	if len(s.Entries) != 9 { // 3 link gauges x 2 scopes, sent, segs_out, ack_rtt
		t.Errorf("%d entries, want 9 (one per key)", len(s.Entries))
	}
}

// TestSnapshotEqual: Equal reports a difference in any field of any
// entry, in a histogram's stats, in the entry count and in the virtual
// time, as comparing the JSON would.
func TestSnapshotEqual(t *testing.T) {
	r := NewRegistry()
	r.Counter(LayerTCP, "segs_out", "cab0").Add(3)
	r.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(5 * sim.Microsecond)
	testLinks.Join(r, "up", &testMember{[3]uint64{1, 2, 3}})
	base := r.Snapshot(7)
	if !base.Equal(r.Snapshot(7)) {
		t.Fatal("two snapshots of one registry are not Equal")
	}
	for name, mutate := range map[string]func(s *Snapshot){
		"at":     func(s *Snapshot) { s.AtUS++ },
		"value":  func(s *Snapshot) { s.Entries[0].Value++ },
		"scope":  func(s *Snapshot) { s.Entries[1].Scope = "down" },
		"kind":   func(s *Snapshot) { s.Entries[2].Kind = "counter" },
		"hist":   func(s *Snapshot) { h := *s.Entries[3].Hist; h.MaxUS++; s.Entries[3].Hist = &h },
		"nohist": func(s *Snapshot) { s.Entries[3].Hist = nil },
		"count":  func(s *Snapshot) { s.Entries = s.Entries[1:] },
	} {
		s := r.Snapshot(7)
		mutate(s)
		if base.Equal(s) || s.Equal(base) {
			t.Errorf("%s: mutated snapshot reported Equal", name)
		}
	}
}

// fabricRegistry builds a registry shaped like one kernel's share of a
// large fabric: members link gauges named like trunks
// ("hub<a>.<port>-><b>") and one HUB gauge member per 40 links, plus a
// handful of per-node scalars.
func fabricRegistry(shard, members int) *Registry {
	r := NewRegistry()
	for i := 0; i < members; i++ {
		testLinks.Join(r, fmt.Sprintf("hub%d.%d->hub%d", (i*7919+shard)%2880, i%48, (i*104729)%2880), &testMember{[3]uint64{uint64(i), 64 * uint64(i), 0}})
		if i%40 == 0 {
			testHubs.Join(r, fmt.Sprintf("hub%d", i/40*2+shard), &testMember{[3]uint64{uint64(i), 0}})
		}
	}
	for n := 0; n < 32; n++ {
		scope := fmt.Sprintf("cab%d", 2*n+shard)
		r.Counter(LayerTCP, "segs_out", scope).Add(uint64(n))
		r.Gauge(LayerMailbox, "puts", scope, func() uint64 { return uint64(n) })
		r.Histogram(LayerMailbox, "queue_wait", scope).Observe(sim.Duration(n) * sim.Microsecond)
	}
	return r
}

// TestMergeSnapshotsAllocsIndependentOfSize is the cost guard: merging
// two registries makes as many allocations with 50,000 family members
// each as with 500. Only the Entries slice grows with the fabric, and it
// is allocated once.
func TestMergeSnapshotsAllocsIndependentOfSize(t *testing.T) {
	allocs := func(members int) float64 {
		a, b := fabricRegistry(0, members), fabricRegistry(1, members)
		return testing.AllocsPerRun(5, func() { MergeSnapshots(0, a, b) })
	}
	small, large := allocs(500), allocs(50000)
	if small != large {
		t.Errorf("MergeSnapshots made %.0f allocations over 2x50,000 members but %.0f over 2x500", large, small)
	}
}

// BenchmarkMergeSnapshots merges two registries sized like a FatTree(48)
// run on two kernels: 110,592 trunk links and 2,880 HUBs in families.
func BenchmarkMergeSnapshots(b *testing.B) {
	regs := []*Registry{fabricRegistry(0, 110592/2), fabricRegistry(1, 110592/2)}
	MergeSnapshots(0, regs...) // sort the key orders once, as the first snapshot of a run does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSnapshot = MergeSnapshots(0, regs...)
	}
}

var benchSnapshot *Snapshot

// TestMergeSnapshotsEmpty covers the degenerate shard sets: no
// registries, only nil registries, and empty registries all produce an
// entry-free snapshot that still stamps the virtual time.
func TestMergeSnapshotsEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		regs []*Registry
	}{
		{"none", nil},
		{"all nil", []*Registry{nil, nil}},
		{"empty", []*Registry{NewRegistry(), NewRegistry()}},
	} {
		s := MergeSnapshots(sim.Time(42*sim.Microsecond), tc.regs...)
		if len(s.Entries) != 0 {
			t.Errorf("%s: %d entries, want none", tc.name, len(s.Entries))
		}
		if s.AtUS != 42 {
			t.Errorf("%s: at_us = %v, want 42", tc.name, s.AtUS)
		}
	}
}

// TestMergeSnapshotsSingle pins the single-shard identity: merging one
// registry must serialize byte-identically to that registry's own
// Snapshot — MergeSnapshots may not reorder, rename, or restate anything.
func TestMergeSnapshotsSingle(t *testing.T) {
	r := NewRegistry()
	r.Counter(LayerFiber, "frames", "hub").Add(7)
	r.Counter(LayerTCP, "retransmits", "cab0").Inc()
	r.Gauge(LayerMailbox, "depth", "n1", func() uint64 { return 3 })
	h := r.Histogram(LayerTCP, "ack_rtt", "cab0")
	h.Observe(5 * sim.Microsecond)
	h.Observe(9 * sim.Microsecond)

	at := sim.Time(100 * sim.Microsecond)
	got := string(MergeSnapshots(at, r).JSON())
	want := string(r.Snapshot(at).JSON())
	if got != want {
		t.Errorf("single-registry merge differs from direct snapshot:\nmerge: %s\ndirect: %s", got, want)
	}
}

// TestMergeSnapshotsSums checks cross-shard composition: counters and
// gauges under the same (layer, name, scope) key sum, keys present in
// only one shard survive, and a nil shard in the middle is skipped.
func TestMergeSnapshotsSums(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter(LayerFiber, "frames", "hub").Add(10)
	b.Counter(LayerFiber, "frames", "hub").Add(32)
	a.Counter(LayerRMP, "timeouts", "cab0").Inc() // shard-a only
	a.Gauge(LayerMailbox, "depth", "n1", func() uint64 { return 2 })
	b.Gauge(LayerMailbox, "depth", "n1", func() uint64 { return 5 })

	s := MergeSnapshots(0, a, nil, b)
	if e, ok := s.Get(LayerFiber, "frames", "hub"); !ok || e.Value != 42 {
		t.Errorf("frames = %+v, want summed value 42", e)
	}
	if e, ok := s.Get(LayerRMP, "timeouts", "cab0"); !ok || e.Value != 1 {
		t.Errorf("single-shard counter = %+v, want 1", e)
	}
	if e, ok := s.Get(LayerMailbox, "depth", "n1"); !ok || e.Value != 7 || e.Kind != "gauge" {
		t.Errorf("gauge = %+v, want summed value 7", e)
	}
}

// TestMergeSnapshotsHistogramBuckets verifies exact percentile
// reproduction: observations split across shards must merge to the same
// stats (count, sum, extrema, p50/p90/p99) as the same observations in
// one registry.
func TestMergeSnapshotsHistogramBuckets(t *testing.T) {
	one := NewRegistry()
	a, b := NewRegistry(), NewRegistry()
	for i := 1; i <= 100; i++ {
		d := sim.Duration(i) * sim.Microsecond
		one.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(d)
		if i%2 == 0 {
			a.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(d)
		} else {
			b.Histogram(LayerTCP, "ack_rtt", "cab0").Observe(d)
		}
	}
	seq, ok := one.Snapshot(0).Get(LayerTCP, "ack_rtt", "cab0")
	if !ok {
		t.Fatal("sequential histogram missing")
	}
	shd, ok := MergeSnapshots(0, a, b).Get(LayerTCP, "ack_rtt", "cab0")
	if !ok {
		t.Fatal("merged histogram missing")
	}
	if *seq.Hist != *shd.Hist {
		t.Errorf("merged stats differ:\nseq: %+v\nshd: %+v", *seq.Hist, *shd.Hist)
	}
	if shd.Hist.Count != 100 || shd.Hist.P90US < shd.Hist.P50US || shd.Hist.P99US < shd.Hist.P90US {
		t.Errorf("implausible merged stats: %+v", *shd.Hist)
	}
}

// TestCanonicalTraceEmpty: no streams, and streams with no events, both
// canonicalize to an empty trace.
func TestCanonicalTraceEmpty(t *testing.T) {
	if got := CanonicalTrace(); len(got) != 0 {
		t.Errorf("CanonicalTrace() = %d events, want 0", len(got))
	}
	if got := CanonicalTrace(nil, []Event{}); len(got) != 0 {
		t.Errorf("CanonicalTrace(nil, empty) = %d events, want 0", len(got))
	}
}

// TestCanonicalTraceSingleStream: canonicalizing one stream preserves
// content order for time-sorted input and renumbers span ids densely by
// first appearance, so arbitrary per-Observer ids become comparable.
func TestCanonicalTraceSingleStream(t *testing.T) {
	in := []Event{
		{At: 10, Node: 1, Layer: LayerCAB, Kind: Begin, Name: "tx", Span: 77},
		{At: 20, Node: 1, Layer: LayerCAB, Kind: Begin, Name: "dma", Span: 99, Parent: 77},
		{At: 30, Node: 1, Layer: LayerCAB, Kind: End, Name: "dma", Span: 99, Parent: 77},
		{At: 40, Node: 1, Layer: LayerCAB, Kind: End, Name: "tx", Span: 77},
	}
	out := CanonicalTrace(in)
	if len(out) != len(in) {
		t.Fatalf("%d events out, want %d", len(out), len(in))
	}
	for i, e := range out {
		if e.At != in[i].At || e.Name != in[i].Name {
			t.Fatalf("event %d reordered: %+v", i, e)
		}
	}
	if out[0].Span != 1 || out[1].Span != 2 {
		t.Errorf("span ids not renumbered by first appearance: %d, %d (want 1, 2)", out[0].Span, out[1].Span)
	}
	if out[1].Parent != out[0].Span || out[2].Parent != out[0].Span {
		t.Errorf("parent links broken by renumbering: %+v", out[1])
	}
	if out[3].Span != out[0].Span {
		t.Errorf("span close got a fresh id: begin %d, end %d", out[0].Span, out[3].Span)
	}
}

// TestCanonicalTraceTies: events sharing a virtual timestamp order by
// content (node, then layer, then name, ...) regardless of which stream
// carried them, and exact duplicates across streams both survive (the
// merge preserves the multiset, it does not dedup).
func TestCanonicalTraceTies(t *testing.T) {
	x := Event{At: 50, Node: 2, Layer: LayerFiber, Kind: Instant, Name: "dl.tx"}
	y := Event{At: 50, Node: 1, Layer: LayerFiber, Kind: Instant, Name: "dl.tx"}
	z := Event{At: 50, Node: 1, Layer: LayerDatalink, Kind: Instant, Name: "dispatch"}

	out := CanonicalTrace([]Event{x}, []Event{y, z})
	if len(out) != 3 {
		t.Fatalf("%d events, want 3", len(out))
	}
	// Content order: node 1 before node 2; within node 1, layer
	// "datalink" sorts before "fiber".
	if out[0] != z || out[1] != y || out[2] != x {
		t.Errorf("tie order wrong:\n0: %+v\n1: %+v\n2: %+v", out[0], out[1], out[2])
	}

	dup := Event{At: 7, Node: 3, Layer: LayerRMP, Kind: Instant, Name: "ack", Seq: 4}
	if got := CanonicalTrace([]Event{dup}, []Event{dup}); len(got) != 2 {
		t.Errorf("duplicate events collapsed: %d, want 2", len(got))
	}
}

// TestCanonicalTraceShardingInvariance is the invariant the sharded
// determinism tests rely on: the same multiset of events, split across
// streams differently (and with clashing per-stream span ids), formats
// identically after canonicalization.
func TestCanonicalTraceShardingInvariance(t *testing.T) {
	mk := func(at sim.Time, node int, name string, span SpanID) Event {
		return Event{At: at, Node: node, Layer: LayerCAB, Kind: Begin, Name: name, Span: span}
	}
	// Sequential observer: one id space.
	seq := []Event{mk(10, 0, "tx", 1), mk(10, 1, "tx", 2), mk(20, 0, "rx", 3), mk(20, 1, "rx", 4)}
	// Two shards: same events, per-shard id spaces that collide (both
	// use span 1 and 2 for different work).
	s0 := []Event{mk(10, 0, "tx", 1), mk(20, 0, "rx", 2)}
	s1 := []Event{mk(10, 1, "tx", 1), mk(20, 1, "rx", 2)}

	if got, want := FormatEvents(CanonicalTrace(s0, s1)), FormatEvents(CanonicalTrace(seq)); got != want {
		t.Errorf("sharded trace canonicalizes differently:\nseq:\n%s\nshd:\n%s", want, got)
	}
}

// TestCanonicalCapture covers the capture merge edge cases: nil and
// empty captures are skipped, timestamp ties order by link then
// content, and flag-only differences order clean-before-flagged.
func TestCanonicalCapture(t *testing.T) {
	if got := CanonicalCapture(nil, &Capture{}); len(got.Packets) != 0 {
		t.Errorf("empty merge produced %d packets", len(got.Packets))
	}

	p := func(link string, bytes int, dropped bool) CapturedPacket {
		return CapturedPacket{At: 100, Link: link, Bytes: bytes, Summary: "dg", Dropped: dropped}
	}
	a := &Capture{Packets: []CapturedPacket{p("hub<->cab1", 64, false)}}
	b := &Capture{Packets: []CapturedPacket{p("hub<->cab0", 64, true), p("hub<->cab0", 64, false)}}
	out := CanonicalCapture(a, nil, b)
	if len(out.Packets) != 3 {
		t.Fatalf("%d packets, want 3", len(out.Packets))
	}
	if out.Packets[0].Link != "hub<->cab0" || out.Packets[2].Link != "hub<->cab1" {
		t.Errorf("link tie-break wrong: %+v", out.Packets)
	}
	if out.Packets[0].Dropped || !out.Packets[1].Dropped {
		t.Errorf("clean packet must sort before its dropped twin: %+v", out.Packets[:2])
	}
}
