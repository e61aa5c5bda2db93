package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diffusionlb/internal/analysis"
	"diffusionlb/internal/analysis/driver"
)

// TestSeededDefectCanary proves the suite catches the defect classes its
// analyzers exist for, end to end through the same entry point make lint
// uses. It copies the module into a scratch directory, plants a cross-shard
// write in the discrete pass kernel, and an fmt call and a bare goroutine in
// the hot Step path, and requires LintModule to flag all three. If a
// refactor ever blinds the analyzers (a renamed kernel, a loosened scope, a
// widened fan-out blessing), this fails before the race does.
func TestSeededDefectCanary(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint on a patched copy is slow; run without -short")
	}
	root := moduleRoot(t)
	scratch := t.TempDir()
	copyModule(t, root, scratch)

	target := filepath.Join(scratch, "internal", "core", "discrete.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	patched := string(src)

	// Defect 1: a cross-shard write — the pass kernel writes slot 0 of the
	// shared normalized-load slice from every shard.
	const sharded = "d.z[i] = float64(d.x[i])\n"
	if !strings.Contains(patched, sharded) {
		t.Fatalf("canary anchor %q not found in discrete.go; update the canary with the kernel", sharded)
	}
	patched = strings.Replace(patched, sharded, "d.z[0] = float64(d.x[i])\n", 1)

	// Defect 2: a hot-path allocation — formatting inside the per-round Step.
	// Defect 3: a bare goroutine in Step, outside the shard.Run fan-out.
	const stepHead = "func (d *Discrete) Step() {\n"
	if !strings.Contains(patched, stepHead) {
		t.Fatalf("canary anchor %q not found in discrete.go; update the canary with the kernel", stepHead)
	}
	patched = strings.Replace(patched, stepHead, stepHead+"\t_ = fmt.Sprintf(\"round %d\", d.round)\n\tgo func() {}()\n", 1)

	if err := os.WriteFile(target, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := driver.NewLoader(scratch)
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := analysis.LintModule(l)
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["shardsafety"] == 0 {
		t.Errorf("planted cross-shard write not caught by shardsafety; diagnostics: %v", byAnalyzer)
	}
	if byAnalyzer["hotalloc"] == 0 {
		t.Errorf("planted hot-path fmt call not caught by hotalloc; diagnostics: %v", byAnalyzer)
	}
	if byAnalyzer["goroutineleak"] == 0 {
		t.Errorf("planted bare goroutine in Step not caught by goroutineleak; diagnostics: %v", byAnalyzer)
	}
}

// copyModule copies the module tree (minus VCS metadata) into dst.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return fs.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
