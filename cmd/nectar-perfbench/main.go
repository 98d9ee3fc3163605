// Command nectar-perfbench is the simulator's benchmark: it measures the
// host cost of simulated results (messages delivered, calls completed) on
// three seeded workloads, end to end and per layer, and checks that every
// simulated result is correct and unchanged.
//
//	nectar-perfbench --workload host-stream --seed 1 --seconds 30 --trace 0
//
// Each repetition runs in a child process of its own (the same binary with
// -child), so set-up, heap and goroutine figures start from a fresh
// runtime, and what one repetition leaves behind cannot leak into the
// next. The parent repeats until --seconds have passed (at least minReps
// times), reports the median of every metric, and prints as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates traced
// and untraced repetitions and reports the per-layer metrics (registry
// counts, phase spans, a CPU profile folded by layer, and the ledger that
// rebuilds the run time from isolated per-layer costs). Spans and profiles
// are written under .bench_build/perfbench/.
//
// DEFECTS.md records the defects the benchmark exposes at its seed state.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// minReps is the fewest repetitions a run measures, however short
// --seconds is.
const minReps = 3

// outDir holds the spans and CPU profiles of traced repetitions.
const outDir = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "", "workload: host-stream, cab-rpc or fabric-lossy")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of traced repetitions")
	child := flag.Bool("child", false, "run one repetition in this process and print its result (internal)")
	sequential := flag.Bool("sequential", false, "with -child or -record: run fabric-lossy on one kernel (the determinism reference)")
	record := flag.String("record", "", "print the digests of seeds `a-b` for -workload, for digests.json")
	flag.Parse()

	w, ok := workloadByName(*workload)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "nectar-perfbench: need -workload host-stream|cab-rpc|fabric-lossy, -trace 0|1 and -seconds > 0")
		os.Exit(2)
	}
	switch {
	case *child:
		r := runRep(w, *seed, *sequential, *trace == 1)
		b, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nectar-perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	case *record != "":
		if err := recordDigests(w, *record, *sequential); err != nil {
			fmt.Fprintln(os.Stderr, "nectar-perfbench:", err)
			os.Exit(1)
		}
	default:
		if err := runParent(w, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "nectar-perfbench:", err)
			os.Exit(1)
		}
	}
}

// spawn runs one repetition in a child process and decodes its result.
func spawn(w workload, seed int64, sequential, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if sequential {
		args = append(args, "-sequential")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d repetition: %w", w.name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r repResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d repetition: decoding result: %w", w.name, seed, err)
	}
	return &r, nil
}

// runParent measures one benchmark run and prints the report.
func runParent(w workload, seed int64, seconds float64, traced bool) error {
	start := time.Now()
	var problems []string

	var reference *repResult
	if w.name == "fabric-lossy" {
		// The sequential run is the determinism reference for the
		// sharded repetitions; it is checked, not timed.
		r, err := spawn(w, seed, true, false)
		if err != nil {
			return err
		}
		reference = r
	}

	var reps, tracedReps []*repResult
	for i := 0; ; i++ {
		enough := len(reps) >= minReps && time.Since(start).Seconds() >= seconds
		if traced {
			enough = len(reps) >= 1 && len(tracedReps) >= 1 && time.Since(start).Seconds() >= seconds
		}
		if enough {
			break
		}
		withTrace := traced && i%2 == 1
		r, err := spawn(w, seed, false, withTrace)
		if err != nil {
			return err
		}
		if withTrace {
			tracedReps = append(tracedReps, r)
		} else {
			reps = append(reps, r)
		}
	}

	first := reps[0]
	for _, r := range append(append([]*repResult{reference}, reps...), tracedReps...) {
		if r == nil {
			continue
		}
		if r.Error != "" {
			problems = append(problems, r.Error)
		}
		problems = append(problems, r.Wrong...)
		if r != reference && r.Digest != first.Digest {
			problems = append(problems, fmt.Sprintf("repetitions disagree: digest %s vs %s", r.Digest, first.Digest))
		}
	}
	var known string // a divergence DEFECTS.md records
	if reference != nil {
		// Every message must be delivered, correctly, in both runs. The
		// instant each one is delivered is compared but need not match:
		// the coupling scheduler breaks exact-nanosecond ties between
		// shards differently from one kernel (internal/sim/pdes.go), and
		// flows on different shards tie at shared HUB ports. The count of
		// flows that differ is reported as pdes.seq_divergent_flows.
		if reference.Attempted != first.Attempted || reference.OK != first.OK {
			problems = append(problems, fmt.Sprintf("sequential run completed %d of %d ops, sharded run %d of %d",
				reference.OK, reference.Attempted, first.OK, first.Attempted))
		}
		flows := divergentGroups(reference, first)
		if len(flows) > 0 || reference.SnapshotDigest != first.SnapshotDigest {
			known = divergence(flows, reference, first)
		}
		for _, r := range tracedReps {
			if r.Layers != nil {
				r.Layers["pdes.seq_divergent_flows"] = float64(len(flows))
			}
		}
		problems = append(problems, checkGolden(w.name+"/sequential", seed, reference.Digest)...)
	}
	problems = append(problems, checkGolden(w.name, seed, first.Digest)...)

	var names []string
	var metrics map[string]metric
	if traced {
		names, metrics = perLayerReport(reps, tracedReps)
	} else {
		names, metrics = endToEndReport(reps)
	}
	printTable(w, seed, first, names, metrics, len(reps), len(tracedReps))
	if known != "" {
		fmt.Println("KNOWN DEFECT (DEFECTS.md #2):", known)
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if traced && len(tracedReps) > 0 {
		if err := writeTraces(w, seed, tracedReps); err != nil {
			return err
		}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(problems) == 0, first.Attempted, first.Attempted - first.OK, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// divergentGroups lists the op groups (flows) whose ops complete at
// different virtual times in the sequential reference and the sharded
// repetitions.
func divergentGroups(seq, shd *repResult) []int {
	var groups []int
	for i := range seq.GroupDigests {
		if i >= len(shd.GroupDigests) || seq.GroupDigests[i] != shd.GroupDigests[i] {
			groups = append(groups, i)
		}
	}
	return groups
}

// divergence describes the difference between the sequential reference
// and the sharded repetitions.
func divergence(groups []int, seq, shd *repResult) string {
	snap := "identical"
	if seq.SnapshotDigest != shd.SnapshotDigest {
		snap = "different"
	}
	return fmt.Sprintf("sharded run differs from the sequential run: ops of flows %v complete at different virtual times (merged metrics snapshot %s)", groups, snap)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf is the median of one named value across repetitions.
func medianOf(reps []*repResult, get func(*repResult) float64) float64 {
	xs := make([]float64, 0, len(reps))
	for _, r := range reps {
		xs = append(xs, get(r))
	}
	return median(xs)
}

func printTable(w workload, seed int64, first *repResult, names []string, ms map[string]metric, reps, traced int) {
	fmt.Printf("nectar-perfbench %s seed %d: %d repetitions", w.name, seed, reps)
	if traced > 0 {
		fmt.Printf(" + %d traced", traced)
	}
	fmt.Printf(" (medians); ops attempted %d, ok %d, failed %d; %d latency samples\n",
		first.Attempted, first.OK, first.Attempted-first.OK, first.LatencySamples)
	for _, n := range names {
		fmt.Printf("  %-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// writeTraces writes the traced repetitions' spans, one JSON line per
// repetition, and their CPU profiles, one pprof file each.
func writeTraces(w workload, seed int64, traced []*repResult) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", w.name, seed)
	f, err := os.Create(filepath.Join(outDir, "spans-"+name+".json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, r := range traced {
		if err := enc.Encode(map[string]any{"repetition": i, "spans": r.Spans}); err != nil {
			f.Close()
			return err
		}
		prof := filepath.Join(outDir, fmt.Sprintf("cpu-%s-rep%d.pprof", name, i))
		if err := os.WriteFile(prof, r.Profile, 0o644); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
