package main

import (
	"testing"

	"nectar/internal/bench"
)

// TestBreakdownMatchesFig6 holds nectar-trace's datagram breakdown,
// computed over the events it recorded, to nectar-bench fig6's: the same
// eleven stages, total, and bucket shares.
func TestBreakdownMatchesFig6(t *testing.T) {
	x, err := run("datagram", 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.stages()
	if err != nil {
		t.Fatal(err)
	}
	want, err := bench.Fig6(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("got %d stages, fig6 has %d", len(got.Stages), len(want.Stages))
	}
	for i := range want.Stages {
		if got.Stages[i] != want.Stages[i] {
			t.Errorf("stage %d = %+v, fig6 has %+v", i, got.Stages[i], want.Stages[i])
		}
	}
	if got.TotalUS != want.TotalUS || got.HostPct != want.HostPct ||
		got.InterfacePct != want.InterfacePct || got.CABPct != want.CABPct {
		t.Errorf("total/buckets = %v %v/%v/%v, fig6 has %v %v/%v/%v",
			got.TotalUS, got.HostPct, got.InterfacePct, got.CABPct,
			want.TotalUS, want.HostPct, want.InterfacePct, want.CABPct)
	}
}
