package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// digests.json records, per workload and seed, the digest of every
// virtual-time result. A change that only makes the simulator faster
// leaves them all identical; a run whose digest differs from the recorded
// one fails its output check. Regenerate an entry only when a simulated
// result is meant to change, and say why:
//
//	nectar-perfbench -workload cab-rpc -record 0-63
//	nectar-perfbench -workload fabric-lossy -record 0-31
//	nectar-perfbench -workload fabric-lossy -sequential -record 0-31
//
//go:embed digests.json
var digestsJSON []byte

var golden map[string]map[string]string

// checkGolden compares a digest with the one recorded for key and seed,
// when one is recorded.
func checkGolden(key string, seed int64, got string) []string {
	if want, ok := goldenDigest(key, seed); ok && want != got {
		return []string{fmt.Sprintf("%s seed %d: digest %s differs from the recorded %s: a simulated result changed", key, seed, got, want)}
	}
	return nil
}

func goldenDigest(workload string, seed int64) (string, bool) {
	if golden == nil {
		if err := json.Unmarshal(digestsJSON, &golden); err != nil {
			panic("nectar-perfbench: digests.json: " + err.Error())
		}
	}
	d, ok := golden[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// recordDigests prints {"seed": "digest"} for seeds a..b of one workload,
// each from one untraced child repetition (sequential: fabric-lossy's
// one-kernel reference, recorded under "fabric-lossy/sequential").
func recordDigests(w workload, span string, sequential bool) error {
	lo, hi, ok := strings.Cut(span, "-")
	if !ok {
		hi = lo
	}
	a, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return err
	}
	b, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return err
	}
	out := map[string]string{}
	for s := a; s <= b; s++ {
		r, err := spawn(w, s, sequential, false)
		if err != nil {
			return err
		}
		if r.Error != "" || len(r.Wrong) > 0 {
			return fmt.Errorf("seed %d: %s %v", s, r.Error, r.Wrong)
		}
		out[strconv.FormatInt(s, 10)] = r.Digest
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}
