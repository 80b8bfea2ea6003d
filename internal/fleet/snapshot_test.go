package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/workload"
)

// soloNode builds a fleet-of-one node with a snapshot path — the
// warm-start unit under test needs no peers.
func soloNode(t *testing.T, path string) *Node {
	t.Helper()
	cat, _, _ := workload.Example11()
	n, err := New(serve.New(cat, serve.Config{Workers: 2}), Config{
		Self: "solo", Peers: []string{"solo"}, SnapshotPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWarmStartFirstRequestIsCacheHit is the restart acceptance test:
// serve, drain, snapshot, boot a fresh node from the file — its very first
// client request must be a plan-cache hit, with the only post-boot engine
// run being the replay itself.
func TestWarmStartFirstRequestIsCacheHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	req := exampleRequest()

	n1 := soloNode(t, path)
	if _, err := n1.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := n1.WarmSetSize(); got != 1 {
		t.Fatalf("warm set has %d entries, want 1", got)
	}
	n1.Service().BeginDrain()
	if err := n1.SaveSnapshot(); err != nil {
		t.Fatalf("snapshot save failed: %v", err)
	}

	n2 := soloNode(t, path) // the restarted daemon
	replayed, err := n2.LoadSnapshot(context.Background())
	if err != nil {
		t.Fatalf("warm start failed: %v", err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d entries, want 1", replayed)
	}
	rep, err := n2.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Local == nil || !rep.Local.Cached {
		t.Fatalf("first post-restart request was not a cache hit: %+v", rep)
	}
	if got := n2.svc.Stats().Optimizations; got != 1 {
		t.Errorf("restarted node ran %d engine runs, want 1 (the replay)", got)
	}
}

// TestCorruptSnapshotColdStarts writes garbage, a version-1 JSON snapshot
// and a truncated one where the snapshot should be: boot must degrade to
// a counted cold start and serve normally after. The JSON file is refused
// as another version, not parsed.
func TestCorruptSnapshotColdStarts(t *testing.T) {
	valid := marshal(&snapshotMsg{Version: snapshotVersion, Keys: []string{"k"}})
	for name, data := range map[string][]byte{
		"garbage": []byte("{not json"),
		"version 1 JSON": []byte(`{"version": 1, "fingerprint": "00", "generation": 3, ` +
			`"entries": [{"sql": "SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k", "strategy": 3}]}`),
		"truncated": valid[:len(valid)-1],
	} {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n := soloNode(t, path)
		replayed, err := n.LoadSnapshot(context.Background())
		if err == nil || replayed != 0 {
			t.Fatalf("%s: corrupt snapshot loaded: replayed=%d err=%v", name, replayed, err)
		}
		if name == "version 1 JSON" && !errors.Is(err, ErrSnapshotVersion) {
			t.Errorf("%s: err = %v, want ErrSnapshotVersion", name, err)
		}
		if got := n.c.snapshotLoadFailures.Load(); got != 1 {
			t.Errorf("%s: snapshotLoadFailures = %d, want 1", name, got)
		}
		rep, oerr := n.Optimize(context.Background(), exampleRequest())
		if oerr != nil || rep.Local == nil {
			t.Fatalf("%s: cold-started node cannot serve: %v", name, oerr)
		}
	}
}

// TestSnapshotFingerprintMismatchColdStarts: a snapshot taken under a
// different catalog (schema or statistics changed across the restart) is
// refused, not replayed.
func TestSnapshotFingerprintMismatchColdStarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	n1 := soloNode(t, path)
	if _, err := n1.Optimize(context.Background(), exampleRequest()); err != nil {
		t.Fatal(err)
	}
	if err := n1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	n2 := soloNode(t, path)
	if err := n2.svc.UpdateCatalog(func(c *catalog.Catalog) error {
		c.MustTable("A").Rows *= 10 // the statistics the plans were derived under changed
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	replayed, err := n2.LoadSnapshot(context.Background())
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched snapshot loaded: replayed=%d err=%v", replayed, err)
	}
	if got := n2.c.snapshotLoadFailures.Load(); got != 1 {
		t.Errorf("snapshotLoadFailures = %d, want 1", got)
	}
}

// TestSnapshotFaultInjection drives the fleet/snapshot site both ways: a
// dropped save is counted and leaves no file; a dropped load cold-starts.
func TestSnapshotFaultInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	n := soloNode(t, path)
	if _, err := n.Optimize(context.Background(), exampleRequest()); err != nil {
		t.Fatal(err)
	}

	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.FleetSnapshot, Kind: faultinject.KindDrop, Every: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)

	if err := n.SaveSnapshot(); err == nil {
		t.Fatal("injected snapshot-save drop reported success")
	}
	if got := n.c.snapshotSaveFailures.Load(); got != 1 {
		t.Errorf("snapshotSaveFailures = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("dropped save left a file: %v", err)
	}
	if replayed, err := n.LoadSnapshot(context.Background()); err == nil || replayed != 0 {
		t.Fatalf("injected snapshot-load drop succeeded: replayed=%d err=%v", replayed, err)
	}
	if got := n.c.snapshotLoadFailures.Load(); got != 1 {
		t.Errorf("snapshotLoadFailures = %d, want 1", got)
	}
}

// TestSnapshotExcludesDegradedAndLimits: degraded or pinned decisions are
// not worth replaying, and the warm set respects its bound.
func TestSnapshotWarmSetBound(t *testing.T) {
	cat, _, _ := workload.Example11()
	n, err := New(serve.New(cat, serve.Config{Workers: 2}), Config{
		Self: "solo", Peers: []string{"solo"},
		SnapshotPath: filepath.Join(t.TempDir(), "snap.json"), SnapshotLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := exampleRequest()
	if _, err := n.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	other := req
	other.Strategy = 0 // a second distinct key (LSCMean)
	if _, err := n.Optimize(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if got := n.WarmSetSize(); got != 1 {
		t.Errorf("warm set grew past its bound: %d entries with limit 1", got)
	}
}
