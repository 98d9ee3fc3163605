package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputPinned holds nectar-sim's report to golden files, byte for
// byte: the chain's port layout, node placement and routes decide every
// virtual-time figure in them.
func TestOutputPinned(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"rmp-6nodes-2hubs.txt", []string{"-nodes", "6", "-hubs", "2", "-proto", "rmp"}},
		{"datagram-6nodes-3hubs-256B.txt", []string{"-nodes", "6", "-hubs", "3", "-proto", "datagram", "-size", "256"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(&got, c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%v: output differs from %s:\n%s", c.args, c.golden, got.Bytes())
		}
	}
}

// TestRejectsBadArgs: argument errors come back as errors, not exits.
func TestRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "tcp"},
		{"-hubs", "0"},
		{"-nodes", "17"}, // one 16-port HUB
	} {
		if err := run(&bytes.Buffer{}, args); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
