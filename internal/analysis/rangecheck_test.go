package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// satQ15RE matches the whole satQ15 function in internal/fixedpoint.
var satQ15RE = regexp.MustCompile(`(?s)func satQ15\(s int32\) Q15 \{.*?\n\}`)

// loadFixedpointVariant copies internal/fixedpoint's source (optionally
// mutated) into a temp package and runs rangecheck over it.
func loadFixedpointVariant(t *testing.T, mutate func(string) string) []Diagnostic {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "fixedpoint", "fixedpoint.go"))
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	if mutate != nil {
		code = mutate(code)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixedpoint.go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	const ip = "fixedpointvariant"
	pkg, fset, err := LoadDir(dir, ip)
	if err != nil {
		t.Fatalf("type-checking variant: %v", err)
	}
	return RunPackage(fset, pkg, Config{DevicePackages: []string{ip}}, []*Analyzer{RangeCheck})
}

// TestFixedpointProvesClean pins the ISSUE's core soundness claim: the
// saturation clamps in internal/fixedpoint are themselves the proof.
// rangecheck must find nothing there without a single waiver.
func TestFixedpointProvesClean(t *testing.T) {
	for _, d := range loadFixedpointVariant(t, nil) {
		t.Errorf("unexpected finding on unmodified fixedpoint: %s", d)
	}
}

// TestFixedpointClampRemovalDetected is the negative control: deleting
// the satQ15 saturation clamp must make rangecheck fail. This is what
// distinguishes a proof from a lint — the analyzer passes because the
// clamp is there, not because the file is waived.
func TestFixedpointClampRemovalDetected(t *testing.T) {
	diags := loadFixedpointVariant(t, func(code string) string {
		mutated := satQ15RE.ReplaceAllString(code, "func satQ15(s int32) Q15 {\n\treturn Q15(s)\n}")
		if mutated == code {
			t.Fatal("satQ15 clamp pattern not found; update satQ15RE alongside fixedpoint.go")
		}
		return mutated
	})
	if len(diags) == 0 {
		t.Fatal("rangecheck found nothing after the satQ15 clamp was deleted")
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "rangecheck" && strings.Contains(d.Message, "may truncate") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a truncation finding on the unclamped Q15 conversion, got: %v", diags)
	}
}

// runScratch type-checks one source file as a device package and runs
// rangecheck over it.
func runScratch(t *testing.T, code string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	const ip = "scratchpkg"
	pkg, fset, err := LoadDir(dir, ip)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	return RunPackage(fset, pkg, Config{DevicePackages: []string{ip}}, []*Analyzer{RangeCheck})
}

// TestScratchControl: accumulation in a plain loop must report int16
// overflow. It is the control for the loop/switch cases in the
// rangecheck golden module's controlflow.go.
func TestScratchControl(t *testing.T) {
	diags := runScratch(t, `package scratchpkg

func F(n int) int16 {
	var acc int16
	for i := 0; i < n; i++ {
		acc += 1000
	}
	return acc
}
`)
	if len(diags) == 0 {
		t.Error("control: expected overflow finding, got none")
	}
	for _, d := range diags {
		t.Logf("control: %s", d)
	}
}
