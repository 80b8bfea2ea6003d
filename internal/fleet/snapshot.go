package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/wire"
)

// snapshotVersion is bumped whenever the snapshot layout changes. Version
// 1 was JSON; version 2 is a tagged message of the peer codec (wire.go).
const snapshotVersion = 2

// ErrSnapshotVersion reports a snapshot file written in another format:
// a version-1 JSON file, or a version this node does not read. It is a
// cold start, never a parse attempt of the rest.
var ErrSnapshotVersion = errors.New("fleet: snapshot version unsupported")

// snapshotMsg is the on-disk warm-start format. It stores request keys,
// not plans: warm start replays each one through the local optimizer, so
// a restarted node never serves a plan it did not derive against its own
// live catalog — the snapshot can only cost startup CPU, not correctness.
type snapshotMsg struct {
	Version uint64
	// Fingerprint hashes the catalog schema and point statistics the keys
	// were served under. A mismatch (schema changed across the restart) is
	// a cold start.
	Fingerprint string
	// Generation is the catalog generation at save time; the booting node
	// adopts it so generation numbers stay monotonic across a restart.
	Generation uint64
	// Epoch/Peers are the membership view at save time; the booting node
	// adopts them (when newer than its seed list) so a restart rejoins
	// the ring it left.
	Epoch   uint64
	Peers   []string
	SavedBy string
	Keys    []string
}

// noteServed records the key of a successfully served request into the
// bounded warm set — the shared source for snapshots and membership
// handoff, so it records regardless of SnapshotPath. Pinned and degraded
// decisions are excluded — only plans worth having again travel. A key is
// the whole request, so recording it builds nothing.
func (n *Node) noteServed(key string, resp *serve.Response) {
	if resp == nil || resp.Decision == nil || resp.Pinned || resp.Decision.Degraded {
		return
	}
	n.warmMu.Lock()
	defer n.warmMu.Unlock()
	if len(n.warmSet) < n.cfg.SnapshotLimit {
		n.warmSet[key] = struct{}{}
	}
}

// WarmSetSize reports how many request keys are recorded for snapshotting.
func (n *Node) WarmSetSize() int {
	n.warmMu.Lock()
	defer n.warmMu.Unlock()
	return len(n.warmSet)
}

// SaveSnapshot writes the warm set to SnapshotPath atomically (temp file +
// rename). Call it after serve.Service.BeginDrain has returned — drain
// flushes in-flight single-flight leaders, so the warm set is final. A
// save failure is counted and returned but must never abort a shutdown.
func (n *Node) SaveSnapshot() error {
	if n.cfg.SnapshotPath == "" {
		return nil
	}
	err := n.saveSnapshot()
	if err != nil {
		n.c.snapshotSaveFailures.Add(1)
		n.cfg.Logf("fleet: snapshot save failed: %v", err)
		return err
	}
	n.c.snapshotSaves.Add(1)
	return nil
}

func (n *Node) saveSnapshot() error {
	switch faultinject.Check(faultinject.FleetSnapshot) {
	case faultinject.KindDrop:
		return fmt.Errorf("fleet: snapshot save dropped (injected)")
	}
	n.warmMu.Lock()
	keys := make([]string, 0, len(n.warmSet))
	for k := range n.warmSet {
		keys = append(keys, k)
	}
	n.warmMu.Unlock()
	sort.Strings(keys)

	v := n.view()
	data := marshal(&snapshotMsg{
		Version:     snapshotVersion,
		Fingerprint: n.catalogFingerprint(),
		Generation:  n.svc.Generation(),
		Epoch:       v.epoch,
		Peers:       v.peers,
		SavedBy:     n.cfg.Self,
		Keys:        keys,
	})
	tmp := n.cfg.SnapshotPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, n.cfg.SnapshotPath)
}

// LoadSnapshot warm-starts the plan cache from SnapshotPath, replaying each
// recorded request key through the local optimizer. Every failure mode —
// no file, unreadable file, corrupt body, another snapshot version (a
// version-1 JSON file among them: ErrSnapshotVersion), catalog-fingerprint
// mismatch, injected fault — is a counted cold start, never a boot
// failure: the returned error is diagnostic. Replay runs sequentially,
// each entry under the service's DefaultTimeout like any other request;
// individual entry failures are skipped.
func (n *Node) LoadSnapshot(ctx context.Context) (replayed int, err error) {
	if n.cfg.SnapshotPath == "" {
		return 0, nil
	}
	f, err := n.readSnapshot()
	if err != nil {
		n.c.snapshotLoadFailures.Add(1)
		n.cfg.Logf("fleet: cold start: %v", err)
		return 0, err
	}
	if f == nil { // no snapshot file: a quiet cold start
		return 0, nil
	}
	n.c.snapshotLoads.Add(1)
	n.adopt(f.Generation)
	if f.Epoch > 0 && len(f.Peers) > 0 {
		n.adoptView(f.Epoch, f.Peers)
	}
	for _, key := range f.Keys {
		if _, err := n.replay(ctx, key, "snapshot entry"); err != nil {
			continue
		}
		replayed++
		n.c.snapshotReplayed.Add(1)
	}
	return replayed, nil
}

// replay serves one received request key — a snapshot entry or a handoff
// entry, named by what in its log lines — through the local optimizer:
// decode it, rebind it against the live catalog, run it, and record it in
// the warm set.
func (n *Node) replay(ctx context.Context, key, what string) (*serve.Response, error) {
	req, err := serve.DecodeKey(key)
	if err != nil {
		n.cfg.Logf("fleet: %s skipped: %v", what, err)
		return nil, err
	}
	bound, key, err := n.svc.Canonicalize(req)
	if err != nil {
		n.cfg.Logf("fleet: %s %q no longer binds: %v", what, req.SQL, err)
		return nil, err
	}
	resp, err := n.svc.Optimize(ctx, bound)
	if err != nil {
		n.cfg.Logf("fleet: %s %q replay failed: %v", what, req.SQL, err)
		return nil, err
	}
	n.noteServed(key, resp)
	return resp, nil
}

// readSnapshot loads and validates the snapshot file. (nil, nil) means no
// file exists.
func (n *Node) readSnapshot() (*snapshotMsg, error) {
	switch faultinject.Check(faultinject.FleetSnapshot) {
	case faultinject.KindDrop:
		return nil, fmt.Errorf("fleet: snapshot load dropped (injected)")
	}
	data, err := os.ReadFile(n.cfg.SnapshotPath)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot unreadable: %w", err)
	}
	var f snapshotMsg
	err = unmarshal(data, &f)
	if errors.Is(err, wire.ErrTag) {
		// Not this codec's snapshot message at all: version 1 was JSON.
		err = ErrSnapshotVersion
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot unusable: %w", err)
	}
	if fp := n.catalogFingerprint(); f.Fingerprint != fp {
		return nil, fmt.Errorf("fleet: snapshot catalog fingerprint %s does not match live catalog %s", f.Fingerprint, fp)
	}
	return &f, nil
}

// catalogFingerprint hashes the live catalog's schema and point statistics
// (tables, size distributions, columns, indexes; histogram presence but not
// buckets). It guards snapshot compatibility across restarts — runtime
// statistics changes are the generation protocol's job, not this hash's.
func (n *Node) catalogFingerprint() string {
	var fp string
	n.svc.ViewCatalog(func(c *catalog.Catalog) {
		h := fnv.New64a()
		names := c.Names()
		sort.Strings(names)
		for _, name := range names {
			t := c.MustTable(name)
			fmt.Fprintf(h, "T|%s|%d|%g\n", t.Name, t.Rows, t.Pages)
			if t.SizeDist != nil {
				fmt.Fprintf(h, "D|%v|%v\n", t.SizeDist.Support(), t.SizeDist.Probs())
			}
			for _, col := range t.Columns {
				fmt.Fprintf(h, "C|%s|%d|%g|%g|%t\n", col.Name, col.Distinct, col.Min, col.Max, col.Hist != nil)
			}
			for _, idx := range t.Indexes {
				fmt.Fprintf(h, "I|%s|%s|%t|%d\n", idx.Name, idx.Column, idx.Clustered, idx.Height)
			}
		}
		fp = fmt.Sprintf("%016x", h.Sum64())
	})
	return fp
}
