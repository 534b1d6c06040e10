package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dbp/internal/load"
)

// TestRunClosedInProc drives the whole CLI path — flag parsing, script
// generation, an in-process dispatcher, a closed-loop run, the summary —
// and pins the -o contract: no file without it, a parseable report with.
func TestRunClosedInProc(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	args := []string{"-target", "inproc", "-mode", "closed", "-clients", "2",
		"-warmup", "0s", "-measure", "200ms", "-jobs", "500", "-shards", "2"}

	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("a run without -o left %d files behind, first %q", len(left), left[0].Name())
	}

	path := filepath.Join(dir, "run.json")
	if err := run(append(args, "-o", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep load.Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("-o wrote unparseable JSON: %v", err)
	}
	if rep.Phases["measure"].Ops == 0 {
		t.Error("measure phase recorded no ops")
	}
	for op, o := range rep.Ops {
		if len(o.Errors) != 0 {
			t.Errorf("%s errors: %v", op, o.Errors)
		}
	}
	if n := rep.Phases["drain"].Leaked; n != 0 {
		t.Errorf("drain leaked %d jobs", n)
	}
}
