package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestScanStyleGoldens runs the built binary on scan-style ATPG and
// byte-compares its verbose output with testdata/*.golden at one and at
// eight workers. The s27 runs search every style's pair space
// exhaustively; the random 40-gate circuit's spaces are too large for
// that and take the seeded-sampling branch.
func TestScanStyleGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs the sampling branch")
	}
	bin := filepath.Join(t.TempDir(), "obdatpg")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building obdatpg: %v\n%s", err, out)
	}
	root := filepath.Join("..", "..")
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"s27", []string{"-netlist", "testdata/s27.bench"}},
		{"random40", []string{"-random-gates", "40", "-random-inputs", "8", "-random-ffs", "6"}},
	} {
		for _, style := range []string{"enhanced", "los", "loc"} {
			name := tc.golden + "_" + style + ".golden"
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []string{"1", "8"} {
				args := append(append([]string{}, tc.args...), "-style", style, "-v", "-workers", workers)
				cmd := exec.Command(bin, args...)
				cmd.Dir = root
				got, err := cmd.Output()
				if err != nil {
					t.Fatalf("obdatpg %v: %v", args, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("obdatpg %v: output differs from testdata/%s\n got:\n%s", args, name, got)
				}
			}
		}
	}
}
