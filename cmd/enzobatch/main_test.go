package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// TestRemoteArtifactsMatchLocal runs a one-row sweep with a slice output
// in-process and against a served scheduler, each with -artifacts, and
// requires both directories to hold the same files byte for byte.
func TestRemoteArtifactsMatchLocal(t *testing.T) {
	var sweep Sweep
	if err := json.Unmarshal([]byte(`{
		"defaults": {"problem": "sedov", "rootn": 8, "maxlevel": 0, "steps": 2, "workers": 1},
		"jobs": [{"outputs": [{"kind": "slice", "field": "rho", "axis": 2, "n": 16}]}]
	}`), &sweep); err != nil {
		t.Fatal(err)
	}
	reqs := []sim.Request{sim.Merge(sweep.Defaults, sweep.Jobs[0])}

	localDir := t.TempDir()
	if failed, _ := runLocal("local", sweep, reqs, make([]Row, 1), 1, 1, "", localDir, false); failed != 0 {
		t.Fatalf("local sweep: %d rows failed", failed)
	}

	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	remoteDir := t.TempDir()
	if failed := runRemote(srv.URL, "remote", sweep, reqs, make([]Row, 1), 0, remoteDir); failed != 0 {
		t.Fatalf("remote sweep: %d rows failed", failed)
	}

	local, remote := readTree(t, localDir), readTree(t, remoteDir)
	if len(local) == 0 {
		t.Fatal("local sweep wrote no artifacts")
	}
	if len(remote) != len(local) {
		t.Fatalf("remote wrote %d files, local %d", len(remote), len(local))
	}
	for name, data := range local {
		if !bytes.Equal(remote[name], data) {
			t.Errorf("%s: remote bytes differ from local", name)
		}
	}
}

// readTree maps every regular file under dir, by slash path relative to
// dir, to its contents.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
