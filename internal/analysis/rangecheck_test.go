package analysis

import (
	"go/importer"
	"go/token"
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

// clampInt16RE matches the whole clampInt16 function in internal/core —
// the saturation that keeps key-frame measurements inside int16 on the
// EncodeWindow path.
var clampInt16RE = regexp.MustCompile(`(?s)func clampInt16\(v int32\) int16 \{.*?\n\}`)

// loadCoreVariant copies the module's internal packages into a temp
// module, applies mutate to internal/core/encoder.go, and runs
// rangecheck over the copy of internal/core with its real imports.
func loadCoreVariant(t *testing.T, mutate func(string) string) []Diagnostic {
	t.Helper()
	root, modPath, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "go.mod"), gomod, 0o644); err != nil {
		t.Fatal(err)
	}
	encoder := filepath.Join("internal", "core", "encoder.go")
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if rel == encoder {
			src = []byte(mutate(string(src)))
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &loader{
		root: dst, modPath: modPath, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*Package{}, loading: map[string]bool{},
	}
	if err := l.discover(); err != nil {
		t.Fatal(err)
	}
	pkg, err := l.load(modPath + "/internal/core")
	if err != nil {
		t.Fatalf("type-checking core variant: %v", err)
	}
	return RunPackage(fset, pkg, DefaultConfig(modPath), []*Analyzer{RangeCheck})
}

// TestCoreClampRemovalDetected is the negative control on a clamp that
// ships: deleting core's clampInt16 saturation, which every key frame
// of EncodeWindow passes its measurements through, must draw a
// rangecheck truncation finding in the copy.
func TestCoreClampRemovalDetected(t *testing.T) {
	truncations := func(diags []Diagnostic) int {
		n := 0
		for _, d := range diags {
			if d.Analyzer == "rangecheck" && strings.Contains(d.Message, "may truncate") &&
				filepath.Base(d.Pos.Filename) == "encoder.go" {
				n++
			}
		}
		return n
	}
	// The unmodified copy proves clean, so the finding below is the
	// clamp's absence and not an artefact of the copy.
	if n := truncations(loadCoreVariant(t, func(code string) string { return code })); n != 0 {
		t.Fatalf("unmodified core copy draws %d truncation findings in encoder.go", n)
	}
	diags := loadCoreVariant(t, func(code string) string {
		mutated := clampInt16RE.ReplaceAllString(code, "func clampInt16(v int32) int16 {\n\treturn int16(v)\n}")
		if mutated == code {
			t.Fatal("clampInt16 pattern not found; update clampInt16RE alongside internal/core/encoder.go")
		}
		return mutated
	})
	if truncations(diags) == 0 {
		t.Errorf("expected a truncation finding on core's unclamped int16 conversion, got: %v", diags)
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
