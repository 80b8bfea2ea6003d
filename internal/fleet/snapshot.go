package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/lec"
)

// snapshotVersion is bumped whenever the snapshot schema changes; a
// mismatched file is a cold start, never a parse attempt.
const snapshotVersion = 1

// snapshotFile is the on-disk warm-start format. It deliberately stores
// *requests*, not plans: each entry is the canonical SQL plus strategy and
// environment of a plan the node served fresh, and warm start replays them
// through the local optimizer. A restarted node therefore never serves a
// plan it did not derive against its own live catalog — the snapshot can
// only ever cost startup CPU, not correctness.
type snapshotFile struct {
	Version int `json:"version"`
	// Fingerprint hashes the catalog schema and point statistics the
	// entries were served under. A mismatch (schema changed across the
	// restart) is a cold start.
	Fingerprint string `json:"fingerprint"`
	// Generation is the catalog generation at save time; the booting node
	// adopts it so generation numbers stay monotonic across a restart.
	Generation uint64 `json:"generation"`
	// Epoch/Peers are the membership view at save time; the booting node
	// adopts them (when newer than its seed list) so a restart rejoins
	// the ring it left.
	Epoch   uint64     `json:"epoch,omitempty"`
	Peers   []string   `json:"peers,omitempty"`
	SavedBy string     `json:"saved_by,omitempty"`
	Entries []WarmSpec `json:"entries"`
}

// WarmSpec is one replayable request spec: the canonical SQL plus the
// numbers its text cannot express. It is the unit of peer lookups,
// snapshots, membership handoff, and replica pushes alike: specs travel,
// plans never do, so a receiver only ever serves plans it derived against
// its own catalog.
type WarmSpec struct {
	// SQL is the canonical pseudo-SQL rendering of the bound query.
	SQL string `json:"sql"`
	// Strategy is the numeric lec.Strategy.
	Strategy int `json:"strategy"`
	// JoinSels/SelSels carry the bound query's numeric join/selection
	// selectivities, which the canonical SQL rendering cannot express —
	// without them the receiver's rebind would silently substitute
	// catalog-derived estimates and optimize a different query under the
	// same key.
	JoinSels []float64 `json:"join_sels,omitempty"`
	SelSels  []float64 `json:"sel_sels,omitempty"`
	// MemVals/MemProbs encode the memory distribution.
	MemVals  []float64 `json:"mem_vals,omitempty"`
	MemProbs []float64 `json:"mem_probs,omitempty"`
	// ChainStates/ChainRows encode the optional Markov memory chain.
	ChainStates []float64   `json:"chain_states,omitempty"`
	ChainRows   [][]float64 `json:"chain_rows,omitempty"`
}

// toServe reconstructs the serve request on the receiving side. The SQL is
// re-bound against the receiver's own catalog — a peer never executes a
// plan fragment it did not derive itself.
func (e *WarmSpec) toServe() (serve.Request, error) {
	out := serve.Request{
		SQL:           e.SQL,
		Strategy:      lec.Strategy(e.Strategy),
		JoinSels:      e.JoinSels,
		SelectionSels: e.SelSels,
	}
	if len(e.MemVals) > 0 {
		// The sender's distribution is already normalized; rebuilding it
		// bit for bit keeps the request key identical on both sides.
		m, err := stats.FromNormalized(e.MemVals, e.MemProbs)
		if err != nil {
			return out, fmt.Errorf("fleet: bad memory distribution on the wire: %w", err)
		}
		out.Env.Memory = m
	}
	if len(e.ChainStates) > 0 {
		c, err := stats.NewChain(e.ChainStates, e.ChainRows)
		if err != nil {
			return out, fmt.Errorf("fleet: bad memory chain on the wire: %w", err)
		}
		out.Env.Chain = c
	}
	return out, nil
}

// noteServed records a successfully served request into the bounded warm
// set — the shared source for snapshots, membership handoff, and replica
// pushes, so it records regardless of SnapshotPath. Pinned and degraded
// decisions are excluded — only plans worth having again travel.
func (n *Node) noteServed(key string, req serve.Request, resp *serve.Response) {
	if resp == nil || resp.Decision == nil || resp.Pinned || resp.Decision.Degraded {
		return
	}
	// A key fingerprints its whole spec, so a recorded key needs no
	// rebuild; skipping it keeps cache hits from re-rendering the SQL.
	n.warmMu.Lock()
	_, seen := n.warmSet[key]
	full := len(n.warmSet) >= n.cfg.SnapshotLimit
	n.warmMu.Unlock()
	if seen || full {
		return
	}
	e, err := newWarmSpec(key, req)
	if err != nil {
		return
	}
	n.warmMu.Lock()
	defer n.warmMu.Unlock()
	if _, ok := n.warmSet[key]; !ok && len(n.warmSet) >= n.cfg.SnapshotLimit {
		return
	}
	n.warmSet[key] = e
}

// WarmSetSize reports how many request specs are recorded for snapshotting.
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
		if n.m != nil {
			n.m.snapshotSaveFailures.Inc()
		}
		n.cfg.Logf("fleet: snapshot save failed: %v", err)
		return err
	}
	n.c.snapshotSaves.Add(1)
	if n.m != nil {
		n.m.snapshotSaves.Inc()
	}
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
	sort.Strings(keys)
	entries := make([]WarmSpec, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, n.warmSet[k])
	}
	n.warmMu.Unlock()

	v := n.view()
	f := snapshotFile{
		Version:     snapshotVersion,
		Fingerprint: n.catalogFingerprint(),
		Generation:  n.svc.Generation(),
		Epoch:       v.epoch,
		Peers:       v.peers,
		SavedBy:     n.cfg.Self,
		Entries:     entries,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	tmp := n.cfg.SnapshotPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, n.cfg.SnapshotPath)
}

// LoadSnapshot warm-starts the plan cache from SnapshotPath, replaying each
// recorded request through the local optimizer. Every failure mode — no
// file, unreadable file, corrupt JSON, version or catalog-fingerprint
// mismatch, injected fault — is a counted cold start, never a boot failure:
// the returned error is diagnostic. Replay runs sequentially under
// ReplayTimeout per entry; individual entry failures are skipped.
func (n *Node) LoadSnapshot(ctx context.Context) (replayed int, err error) {
	if n.cfg.SnapshotPath == "" {
		return 0, nil
	}
	f, err := n.readSnapshot()
	if err != nil {
		n.c.snapshotLoadFailures.Add(1)
		if n.m != nil {
			n.m.snapshotLoadFailures.Inc()
		}
		n.cfg.Logf("fleet: cold start: %v", err)
		return 0, err
	}
	if f == nil { // no snapshot file: a quiet cold start
		return 0, nil
	}
	n.c.snapshotLoads.Add(1)
	if n.m != nil {
		n.m.snapshotLoads.Inc()
	}
	n.adopt(f.Generation)
	if f.Epoch > 0 && len(f.Peers) > 0 {
		n.adoptView(f.Epoch, f.Peers)
	}
	for _, e := range f.Entries {
		req, err := e.toServe()
		if err != nil {
			n.cfg.Logf("fleet: snapshot entry %q skipped: %v", e.SQL, err)
			continue
		}
		rctx := ctx
		var cancel context.CancelFunc = func() {}
		if n.cfg.ReplayTimeout > 0 {
			rctx, cancel = context.WithTimeout(ctx, n.cfg.ReplayTimeout)
		}
		bound, key, berr := n.svc.Canonicalize(req)
		if berr != nil {
			cancel()
			n.cfg.Logf("fleet: snapshot entry %q no longer binds: %v", e.SQL, berr)
			continue
		}
		resp, oerr := n.svc.Optimize(rctx, bound)
		cancel()
		if oerr != nil {
			n.cfg.Logf("fleet: snapshot entry %q replay failed: %v", e.SQL, oerr)
			continue
		}
		n.noteServed(key, bound, resp)
		replayed++
		n.c.snapshotReplayed.Add(1)
		if n.m != nil {
			n.m.snapshotReplayed.Inc()
		}
	}
	return replayed, nil
}

// readSnapshot loads and validates the snapshot file. (nil, nil) means no
// file exists.
func (n *Node) readSnapshot() (*snapshotFile, error) {
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
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("fleet: snapshot corrupt: %w", err)
	}
	if f.Version != snapshotVersion {
		return nil, fmt.Errorf("fleet: snapshot version %d, want %d", f.Version, snapshotVersion)
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
