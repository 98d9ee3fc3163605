package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json's metric lists in
// step with what the benchmark prints.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEndUnits[i].name || m.Unit != endToEndUnits[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
				i, m.Name, m.Unit, endToEndUnits[i].name, endToEndUnits[i].unit)
		}
	}
	names, ms := perLayerReport([]*repResult{{EndToEnd: map[string]float64{"ops_per_s": 1}}},
		[]*repResult{{EndToEnd: map[string]float64{"ops_per_s": 1}}})
	if len(b.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(names))
	}
	for i, m := range b.PerLayer {
		if m.Name != names[i] || m.Unit != ms[names[i]].Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, names[i], ms[names[i]].Unit)
		}
	}
}

// TestCABRPCDeterministic runs the cheapest workload twice in-process and
// checks both runs against each other and the recorded digest.
func TestCABRPCDeterministic(t *testing.T) {
	w, _ := workloadByName("cab-rpc")
	a := runRep(w, 1, false, false)
	b := runRep(w, 1, false, false)
	if a.Error != "" || len(a.Wrong) > 0 {
		t.Fatalf("cab-rpc: %s %v", a.Error, a.Wrong)
	}
	if a.Digest != b.Digest {
		t.Fatalf("two runs of one seed differ: %s vs %s", a.Digest, b.Digest)
	}
	if want, ok := goldenDigest("cab-rpc", 1); !ok || want != a.Digest {
		t.Fatalf("digest %s, recorded %q", a.Digest, want)
	}
	if a.Attempted != rpcClients*rpcCallsPerClient {
		t.Errorf("attempted %d calls, want %d", a.Attempted, rpcClients*rpcCallsPerClient)
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b, c := genFabric(7), genFabric(7), genFabric(8)
	for f := range a.flows {
		if a.flows[f] != b.flows[f] {
			t.Fatalf("flow %d: %v vs %v for one seed", f, a.flows[f], b.flows[f])
		}
		perPod := fabricK * fabricK / 4
		if a.flows[f][0]/perPod == a.flows[f][1]/perPod {
			t.Errorf("flow %d %v stays inside one pod", f, a.flows[f])
		}
	}
	same := true
	for f := range a.flows {
		same = same && a.flows[f] == c.flows[f]
	}
	if same {
		t.Error("seeds 7 and 8 place the same flows")
	}
	s := genStream(3)
	for _, conn := range s {
		for _, n := range conn.sizes {
			if n < streamMinBytes || n > streamMaxBytes {
				t.Fatalf("message size %d outside [%d, %d]", n, streamMinBytes, streamMaxBytes)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"nectar/internal/sim.(*Proc).dispatch", "/src/internal/sim/proc.go", "sim"},
		{"nectar/internal/sim.(*Coupling).run", "/src/internal/sim/pdes.go", "pdes"},
		{"nectar/internal/rt/mailbox.(*Mailbox).deliver", "/src/internal/rt/mailbox/mailbox.go", "mailbox"},
		{"nectar/internal/proto/nectar.(*RRP).EndOfData", "/src/internal/proto/nectar/rrp.go", "rrp"},
		{"nectar/internal/proto/nectar.(*Datagram).Send", "/src/internal/proto/nectar/datagram.go", "datagram"},
		{"nectar/internal/proto/wire.Checksum", "/src/internal/proto/wire/checksum.go", "wire"},
		{"nectar.(*Cluster).RunFor", "/src/cluster.go", "cluster"},
		{"nectar/internal/proto/udp.(*Layer).Send", "/src/internal/proto/udp/udp.go", "other"},
		{"main.runCABRPC.func3", "/src/cmd/nectar-perfbench/workloads.go", "bench"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"encoding/json.Marshal", "/go/src/encoding/json/encode.go", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// TestFoldProfile folds a hand-encoded profile: runtime frames are charged
// to their nearest nectar caller, stacks without one to "runtime".
func TestFoldProfile(t *testing.T) {
	var p []byte
	field := func(dst []byte, num int, body []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(num<<3|2))
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		return append(dst, body...)
	}
	varint := func(dst []byte, num int, v uint64) []byte {
		dst = binary.AppendUvarint(dst, uint64(num<<3))
		return binary.AppendUvarint(dst, v)
	}
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	strs := []string{"", "runtime.mallocgc", "malloc.go", "nectar/internal/rt/mailbox.(*Mailbox).tryReserve",
		"mailbox.go", "runtime.gcBgMarkWorker", "mgc.go"}
	for _, s := range strs {
		p = field(p, 6, []byte(s))
	}
	// Functions 1..3 and one location per function.
	for id, names := range [][2]uint64{{1, 2}, {3, 4}, {5, 6}} {
		var f []byte
		f = varint(f, 1, uint64(id+1))
		f = varint(f, 2, names[0])
		f = varint(f, 4, names[1])
		p = field(p, 5, f)
		var line []byte
		line = varint(line, 1, uint64(id+1))
		var loc []byte
		loc = varint(loc, 1, uint64(id+1))
		loc = field(loc, 4, line)
		p = field(p, 4, loc)
	}
	sample := func(value uint64, locs ...uint64) {
		var s []byte
		s = field(s, 1, packed(locs...))
		s = field(s, 2, packed(1, value))
		p = field(p, 2, s)
	}
	sample(300, 1, 2) // mallocgc called from mailbox: mailbox
	sample(100, 3)    // background GC: runtime
	ns, err := foldProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if ns["mailbox"] != 300 || ns["runtime"] != 100 || len(ns) != len(profileLayers) {
		t.Errorf("fold = %v, want mailbox 300, runtime 100, every other layer 0", ns)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
