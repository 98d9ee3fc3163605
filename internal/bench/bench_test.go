package bench

import (
	"testing"

	"nectar/internal/sim"
)

// The calibration tests pin the reproduction to the paper's anchors: if a
// refactor drifts a headline number outside its tolerance band, these
// fail. They run the real experiments, so they are the slowest tests in
// the repository (a few seconds of wall clock).

func TestCalibrationTable1(t *testing.T) {
	r, err := Table1(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table1Row{}
	for _, row := range r.Rows {
		rows[row.Proto] = row
	}
	dg := rows["datagram"]
	// Paper: 325 us host-host, 179 us CAB-CAB. Allow 15%.
	if dg.HostHostUS < 276 || dg.HostHostUS > 374 {
		t.Errorf("datagram host-host RTT = %.0f us, want 325 +/- 15%%", dg.HostHostUS)
	}
	if dg.CABCABUS < 152 || dg.CABCABUS > 206 {
		t.Errorf("datagram CAB-CAB RTT = %.0f us, want 179 +/- 15%%", dg.CABCABUS)
	}
	// Abstract: RPC < 500 us.
	if rr := rows["request-response"]; rr.HostHostUS >= 500 {
		t.Errorf("RPC host-host RTT = %.0f us, want < 500", rr.HostHostUS)
	}
	// UDP must be the slowest (full IP stack + checksums).
	udp := rows["UDP"]
	for name, row := range rows {
		if name != "UDP" && row.HostHostUS >= udp.HostHostUS {
			t.Errorf("%s (%.0f us) not faster than UDP (%.0f us)", name, row.HostHostUS, udp.HostHostUS)
		}
	}
	// Unreliable datagram must beat the acknowledged protocols.
	if dg.HostHostUS >= rows["reliable (RMP)"].HostHostUS {
		t.Error("datagram not faster than RMP")
	}
}

func TestCalibrationFig6(t *testing.T) {
	r, err := Fig6(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 163 us total; allow 10%.
	if r.TotalUS < 147 || r.TotalUS > 179 {
		t.Errorf("one-way latency = %.1f us, want 163 +/- 10%%", r.TotalUS)
	}
	// Paper: ~20/40/40 split; allow generous bands.
	if r.HostPct < 10 || r.HostPct > 30 {
		t.Errorf("host bucket = %.0f%%, want ~20%%", r.HostPct)
	}
	if r.InterfacePct < 30 || r.InterfacePct > 55 {
		t.Errorf("interface bucket = %.0f%%, want ~40%%", r.InterfacePct)
	}
	if r.CABPct < 30 || r.CABPct > 50 {
		t.Errorf("CAB-CAB bucket = %.0f%%, want ~40%%", r.CABPct)
	}
	// Stages must account for the whole path.
	var sum float64
	for _, s := range r.Stages {
		if s.US < 0 {
			t.Errorf("negative stage %q", s.Name)
		}
		sum += s.US
	}
	if diff := sum - r.TotalUS; diff > 0.01 || diff < -0.01 {
		t.Errorf("stages sum to %.2f, total %.2f", sum, r.TotalUS)
	}
}

// TestFig6Pinned holds every Figure 6 stage, the total, and Micro's HUB
// first-byte latency to the exact nanosecond values recorded in
// EXPERIMENTS.md E2 and E6. The calibration bands above are loose on
// purpose; this test catches any drift of the stage boundaries themselves.
func TestFig6Pinned(t *testing.T) {
	r, err := Fig6(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		ns   int64
	}{
		{"host: create message", 14000},
		{"host: begin_put/write/end_put", 25000},
		{"host->CAB: doorbell + CAB ISR", 4000},
		{"CAB1: wake datagram thread", 23000},
		{"CAB1: transport + datalink out", 17000},
		{"wire: fiber + HUB", 700},
		{"CAB2: start-of-packet + datalink", 4720},
		{"CAB2: DMA + transport deliver", 35500},
		{"CAB2->host: signal + poll + begin_get", 8080},
		{"host: read message", 15000},
		{"host: end_get", 10500},
	}
	if len(r.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d", len(r.Stages), len(want))
	}
	for i, w := range want {
		if s := r.Stages[i]; s.Name != w.name || s.US != sim.Duration(w.ns).Micros() {
			t.Errorf("stage %d = %q %.3f us, want %q %.3f us", i, s.Name, s.US, w.name, sim.Duration(w.ns).Micros())
		}
	}
	if r.TotalUS != sim.Duration(157500).Micros() {
		t.Errorf("total = %.3f us, want 157.500", r.TotalUS)
	}
	m, err := Micro(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.HubFirstByteNS != 700 {
		t.Errorf("HUB first byte = %v ns, want 700", m.HubFirstByteNS)
	}
}

func TestCalibrationFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	curves, _, err := Fig7(nil, []int{64, 128, 8192})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]Point{}
	for _, c := range curves {
		byName[c.Name] = c.Points
	}
	rmp8k := byName["RMP"][2].Mbps
	tcp8k := byName["TCP/IP"][2].Mbps
	nock8k := byName["TCP w/o checksum"][2].Mbps
	// Paper: RMP ~90 Mbit/s at 8 KB (allow 80-95).
	if rmp8k < 80 || rmp8k > 95 {
		t.Errorf("RMP 8K = %.1f Mbit/s, want ~90", rmp8k)
	}
	// Paper: TCP w/o checksum almost as fast as RMP; TCP/IP well below.
	if nock8k < 0.75*rmp8k {
		t.Errorf("TCP w/o checksum 8K = %.1f, want near RMP %.1f", nock8k, rmp8k)
	}
	if tcp8k > 0.65*nock8k {
		t.Errorf("TCP/IP 8K = %.1f vs no-checksum %.1f; checksum gap missing", tcp8k, nock8k)
	}
	// Doubling region: 64 -> 128 roughly doubles for RMP.
	ratio := byName["RMP"][1].Mbps / byName["RMP"][0].Mbps
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("RMP 128/64 ratio = %.2f, want ~2 (overhead-dominated)", ratio)
	}
}

func TestCalibrationFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	curves, _, err := Fig8(nil, []int{8192})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		v := c.Points[0].Mbps
		// Paper: VME-limited, 24-28 Mbit/s zone; our bus model tops out
		// just above 30. Require the VME ceiling, not the fiber's.
		if v < 22 || v > 33 {
			t.Errorf("%s host-host 8K = %.1f Mbit/s, want VME-limited 24-31", c.Name, v)
		}
	}
}

func TestCalibrationNetdev(t *testing.T) {
	if testing.Short() {
		t.Skip("stream experiment")
	}
	r, err := Netdev(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 6.4 vs 7.2 Mbit/s; allow 10%.
	if r.NectarNetdevMbps < 5.8 || r.NectarNetdevMbps > 7.0 {
		t.Errorf("netdev = %.1f Mbit/s, want ~6.4", r.NectarNetdevMbps)
	}
	if r.EthernetMbps < 6.5 || r.EthernetMbps > 7.9 {
		t.Errorf("ethernet = %.1f Mbit/s, want ~7.2", r.EthernetMbps)
	}
	if r.EthernetMbps <= r.NectarNetdevMbps {
		t.Error("Ethernet must beat the VME-crossing netdev level (paper §6.3)")
	}
}

func TestCalibrationMicro(t *testing.T) {
	r, err := Micro(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.HubFirstByteNS < 690 || r.HubFirstByteNS > 710 {
		t.Errorf("hub first byte = %.0f ns, want 700", r.HubFirstByteNS)
	}
	if r.ContextSwitchUS < 19 || r.ContextSwitchUS > 22 {
		t.Errorf("context switch = %.1f us, want ~20", r.ContextSwitchUS)
	}
}

func TestAblationIPMode(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	r, err := AblateIPMode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The thread mode pays extra context switches (paper §3.1 predicts
	// "additional context switching").
	if r.ThreadRTTUS <= r.InterruptRTTUS {
		t.Errorf("thread-mode RTT %.1f <= interrupt-mode %.1f; expected added switches",
			r.ThreadRTTUS, r.InterruptRTTUS)
	}
	if r.ThreadMbps >= r.InterruptMbps {
		t.Errorf("thread-mode throughput %.1f >= interrupt-mode %.1f", r.ThreadMbps, r.InterruptMbps)
	}
}

func TestAblationUpcall(t *testing.T) {
	r, err := AblateUpcall(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The upcall saves roughly two context switches (40 us) per exchange.
	saved := r.ThreadUS - r.UpcallUS
	if saved < 30 || saved > 60 {
		t.Errorf("upcall saves %.1f us/op, want ~40 (two context switches)", saved)
	}
}

func TestAblationMailboxImpl(t *testing.T) {
	r, err := AblateMailboxImpl(nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.RPCUS / r.SharedUS
	// Paper: "about a factor of two"; our RPC path is costlier — accept
	// 1.5-5x but require the direction (EXPERIMENTS.md records the gap).
	if ratio < 1.5 || ratio > 5 {
		t.Errorf("RPC/shared = %.1fx, want >= 1.5x and sane", ratio)
	}
}

func TestAblationSwitching(t *testing.T) {
	r, err := AblateSwitching(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.PacketFirstByteNS-r.CircuitFirstByteNS != 700 {
		t.Errorf("packet-circuit delta = %.0f ns, want 700 (the HUB setup)",
			r.PacketFirstByteNS-r.CircuitFirstByteNS)
	}
}

func TestFormatters(t *testing.T) {
	// Smoke-test the human-readable output paths.
	r := &Table1Result{Rows: []Table1Row{{Proto: "x", HostHostUS: 1, CABCABUS: 2}}}
	if r.Format() == "" {
		t.Error("empty Table1 format")
	}
	c := []Curve{{Name: "a", Points: []Point{{16, 1.5}}}}
	if FormatCurves("t", c) == "" {
		t.Error("empty curve format")
	}
	m := &MicroResult{HubFirstByteNS: 700, ContextSwitchUS: 20}
	if m.Format() == "" {
		t.Error("empty micro format")
	}
}

func TestAblationRMPWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	r, err := AblateRMPWindow(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The window must help (or at worst be neutral): the finding recorded
	// in EXPERIMENTS.md is that stop-and-wait costs <10% on this network.
	if r.Window4Mbps < r.StopAndWaitMbps*0.98 {
		t.Errorf("window 4 (%.1f) slower than stop-and-wait (%.1f)", r.Window4Mbps, r.StopAndWaitMbps)
	}
	if r.Window4Mbps > r.StopAndWaitMbps*1.3 {
		t.Errorf("window 4 gain %.1f -> %.1f contradicts the recorded <10%% finding",
			r.StopAndWaitMbps, r.Window4Mbps)
	}
	if r.Format() == "" {
		t.Error("empty format")
	}
}

func TestAblationAppLoad(t *testing.T) {
	r, err := AblateAppLoad(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The §3.1 scheduling claim: protocol latency is essentially immune
	// to application load on the CAB.
	if r.LoadedRTTUS > r.IdleRTTUS*1.25 {
		t.Errorf("loaded RTT %.1f vs idle %.1f: application load disturbed the protocols",
			r.LoadedRTTUS, r.IdleRTTUS)
	}
	if r.Format() == "" {
		t.Error("empty format")
	}
}

func TestAblationFormatSmoke(t *testing.T) {
	// Exercise the remaining human-readable formatters.
	for _, s := range []string{
		(&AblateIPModeResult{}).Format(),
		(&AblateUpcallResult{}).Format(),
		(&AblateSwitchingResult{}).Format(),
		(&AblateMailboxImplResult{}).Format(),
		(&NetdevResult{}).Format(),
		(&Fig6Result{TotalUS: 1, Stages: []Fig6Stage{{Name: "x", US: 1}}}).Format(),
	} {
		if s == "" {
			t.Error("empty formatter output")
		}
	}
}
