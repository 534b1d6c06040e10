package dbp

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/examples/*.txt from the current code")

// goldenExamples are the examples that run to completion on their own;
// examples/serve starts a daemon and is left out.
var goldenExamples = []string{"adversarial", "billing", "cloudgaming", "fleet", "keepalive", "quickstart"}

// TestExamplesGolden pins each self-contained example's stdout to
// testdata/examples/<name>.txt, so a refactor that must leave the
// examples' output byte-identical is checked here rather than by hand.
// Run with -update to rewrite the files after a change that is meant to
// move an example's output.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping the examples' builds and runs")
	}
	if runtime.GOARCH != "amd64" {
		// Other architectures fuse multiply-add, which may move the last
		// printed digit of a float.
		t.Skipf("golden outputs are recorded on amd64, not %s", runtime.GOARCH)
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range goldenExamples {
		args = append(args, "./examples/"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("examples/%s: %v", name, err)
			}
			path := filepath.Join("testdata", "examples", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("examples/%s differs from %s at line %d:\n got: %s\nwant: %s", name, path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("examples/%s differs from %s in length: %d lines, want %d", name, path, len(gl), len(wl))
		})
	}
}
