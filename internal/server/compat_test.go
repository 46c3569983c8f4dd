package server

import (
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// TestRecoverFormatFixture recovers testdata/compat/data, a data directory
// the server wrote before its snapshot, restore and replay paths were
// merged into one: the paper schemas in two workspaces, a saved
// integration with rows, jobs and a key set, compacted into snapshots, then
// a journal tail holding every op kind. The recovered state must read back
// exactly as that older server read it back from the same directory
// (testdata/compat/expected.json), which pins the snapshot and journal
// formats.
func TestRecoverFormatFixture(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, "testdata/compat/data", dir)
	ops := map[string]bool{}
	for _, ws := range []string{DefaultWorkspace, "alt"} {
		j, err := journal.Open(filepath.Join(dir, ws), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := j.Snapshot(); !ok {
			t.Errorf("fixture workspace %s has no snapshot", ws)
		}
		for _, rec := range j.Records() {
			ops[rec.Op] = true
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []string{
		opAddSchemas, opRemoveSchema, opDeclareEquiv, opAssert, opRetract,
		opJobSubmit, opJobStart, opJobFinish, opSaveIntegration, opLoadRows, opSetKeys,
	} {
		if !ops[op] {
			t.Errorf("fixture journal tails hold no %s record", op)
		}
	}

	data, err := os.ReadFile("testdata/compat/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var want observation
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	srv := openProp(t, dir, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Kill()
	requireSameState(t, "recovered fixture", want, observe(t, ts.Client(), ts.URL))
}

// copyTree copies the directory tree at src into dst.
func copyTree(t testing.TB, src, dst string) {
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
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
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
