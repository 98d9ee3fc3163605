package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"nectar/internal/obs"
	"nectar/internal/sim"
)

// repResult is what one repetition (one child process) reports.
type repResult struct {
	Error string   `json:"error,omitempty"`
	Wrong []string `json:"wrong,omitempty"`

	// Digest covers every virtual-time result: per-op issue and
	// completion times and outcomes, the failure count, and the merged
	// MetricsSnapshot.
	Digest string `json:"digest"`
	// GroupDigests hash the ops of each connection, client or flow, and
	// SnapshotDigest the merged MetricsSnapshot, so a mismatch can be
	// located.
	GroupDigests   []string `json:"group_digests"`
	SnapshotDigest string   `json:"snapshot_digest"`
	Attempted      int      `json:"attempted"`
	OK             int      `json:"ok"`
	LatencySamples int      `json:"latency_samples"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// Profile is the traced run's CPU profile (pprof format) and
	// ProfileNS the same folded by layer, in ns.
	Profile   []byte             `json:"profile,omitempty"`
	ProfileNS map[string]float64 `json:"profile_ns,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// endToEndUnits fixes the end-to-end metrics' order and units.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_peak_mb", "MB"},
	{"retained_heap_mb", "MB"},
	{"retained_goroutines", "count"},
	{"ok_frac", "ratio"},
	{"sim_goodput_mbps", "Mbit/s"},
	{"sim_op_us_p50", "us"},
	{"sim_op_us_p99", "us"},
}

// runRep runs one repetition in this process.
func runRep(w workload, seed int64, sequential, traced bool) *repResult {
	r := &repResult{}
	m := newMeter(traced)
	out, err := w.run(seed, sequential, m)
	if err != nil {
		r.Error = err.Error()
		return r
	}
	r.Wrong = out.wrong
	r.Attempted = len(out.ops)
	for _, o := range out.ops {
		if o.ok {
			r.OK++
		}
	}
	r.Digest, r.GroupDigests, r.SnapshotDigest = digest(out)
	if m.profileError != nil {
		r.Error = "cpu profile: " + m.profileError.Error()
	}

	e := map[string]float64{}
	interval := m.intervalSeconds()
	ok := float64(max(r.OK, 1))
	e["setup_s"] = m.setupSeconds()
	e["ops_per_s"] = float64(r.OK) / interval
	e["cpu_us_per_op"] = m.cpuSeconds * 1e6 / ok
	e["allocs_per_op"] = float64(m.memEnd.Mallocs-m.memStart.Mallocs) / ok
	e["alloc_bytes_per_op"] = float64(m.memEnd.TotalAlloc-m.memStart.TotalAlloc) / ok
	e["heap_peak_mb"] = float64(m.heapPeak) / (1 << 20)
	e["ok_frac"] = float64(r.OK) / float64(r.Attempted)
	lat := opLatencies(out.ops)
	r.LatencySamples = len(lat)
	e["sim_goodput_mbps"] = goodput(out, m)
	e["sim_op_us_p50"], e["sim_op_us_p99"] = quantile(lat, 0.50), quantile(lat, 0.99)

	var cnt counts
	if traced {
		r.Layers, cnt = layerMetrics(out, m, r.OK)
		r.Spans = m.spans
		r.Profile = m.profile.Bytes()
		if r.ProfileNS, err = foldProfile(r.Profile); err != nil {
			r.Error = "cpu profile: " + err.Error()
		}
	}

	// Drop the benchmark's own references into the simulation, so that
	// whatever a full GC cannot free is pinned by goroutines the simulator
	// left parked.
	setupStart := m.setupStart
	out.snap, out, m = nil, nil, nil
	t0 := time.Now()
	heap, gs := retained()
	if traced {
		r.Spans = append(r.Spans, span{"teardown", t0.Sub(setupStart).Seconds(), time.Since(t0).Seconds()})
	}
	e["retained_heap_mb"] = float64(heap) / (1 << 20)
	e["retained_goroutines"] = float64(gs)
	r.EndToEnd = e
	if traced {
		for k, v := range ledger(cnt, measureLayerCosts()) {
			r.Layers[k] = v
		}
	}
	return r
}

// opLatencies returns the virtual issue-to-completion latency, in µs, of
// every op that completed OK. Failed and unfinished ops are not latency
// samples; they count against ok_frac.
func opLatencies(ops []op) []float64 {
	var lat []float64
	for _, o := range ops {
		if o.ok {
			lat = append(lat, sim.Duration(o.done-o.issued).Micros())
		}
	}
	return lat
}

// goodput sums, over op groups (connections, clients, flows), each
// group's delivered payload divided by the virtual time it took: from the
// first op issued to the group's last op resolved, or to the end of the
// run when some op never resolved (cab-rpc's calls stranded by the
// stall). Summing per-group rates keeps one slow flow's tail from setting
// the whole figure.
func goodput(out *simOut, m *meter) float64 {
	per := len(out.ops) / out.groups
	var mbps float64
	for g := 0; g < out.groups; g++ {
		var bits float64
		var last sim.Time
		unresolved := false
		for _, o := range out.ops[g*per : (g+1)*per] {
			if o.ok {
				bits += 8 * float64(o.bytes)
			}
			unresolved = unresolved || o.done == 0
			last = max(last, o.done)
		}
		if unresolved {
			last = m.virtEnd
		}
		if last > m.virtStart {
			mbps += bits / sim.Duration(last-m.virtStart).Seconds() / 1e6
		}
	}
	return mbps
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// digest hashes every virtual-time result of a repetition: the whole, each
// op group (out.groups ops at a time), and the snapshot alone.
func digest(out *simOut) (all string, groups []string, snap string) {
	h, g, sh := sha256.New(), sha256.New(), sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
		g.Write(b[:])
	}
	per := len(out.ops) / out.groups
	failed := 0
	for i, o := range out.ops {
		put(uint64(o.bytes))
		put(uint64(o.issued))
		put(uint64(o.done))
		if o.ok {
			put(1)
		} else {
			put(0)
			failed++
		}
		if (i+1)%per == 0 {
			groups = append(groups, hex.EncodeToString(g.Sum(nil))[:16])
			g.Reset()
		}
	}
	put(uint64(failed))
	hashSnapshot(io.MultiWriter(h, sh), out.snap)
	return hex.EncodeToString(h.Sum(nil)), groups, hex.EncodeToString(sh.Sum(nil))
}

// hashSnapshot feeds every entry of the snapshot to h. It streams the
// entries instead of rendering the snapshot's JSON, which runs to tens of
// megabytes on a fabric with a hundred thousand links.
func hashSnapshot(h io.Writer, s *obs.Snapshot) {
	fmt.Fprintf(h, "at=%v\n", s.AtUS)
	for _, e := range s.Entries {
		fmt.Fprintf(h, "%s %s %s %s %d", e.Layer, e.Name, e.Scope, e.Kind, e.Value)
		if e.Hist != nil {
			fmt.Fprintf(h, " %+v", *e.Hist)
		}
		h.Write([]byte{'\n'})
	}
}
