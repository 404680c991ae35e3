package main

import (
	"testing"

	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/durable"
	"diggsim/internal/shard"
	"diggsim/internal/wal"
)

// The decorator must keep every capability the server and the live
// service type-assert, for each store topology diggd runs.
func TestWrapStoreKeepsCapabilities(t *testing.T) {
	cfg := dataset.SmallConfig()
	cfg.Users, cfg.Submissions = 200, 20
	newPlatform := func() *digg.Platform {
		ds, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds.Platform
	}
	opts := durable.Options{Sync: wal.SyncOS}
	dstore, err := durable.Create(t.TempDir(), newPlatform(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dstore.Close()
	sstore, err := shard.Create(t.TempDir(), newPlatform(), 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sstore.Close()

	for name, s := range map[string]digg.Store{"platform": newPlatform(), "durable": dstore, "shard": sstore} {
		w, err := wrapStore(s, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capabilities(w), capabilities(s); got != want {
			t.Errorf("%s: decorator capabilities %v, store has %v", name, got, want)
		}
	}
	// The sharded store has every optional capability; losing any would
	// silently change the server's write path.
	if c := capabilities(sstore); c != [4]bool{true, true, true, true} {
		t.Errorf("shard.Store capabilities changed: %v", c)
	}
}

func TestTracedShardForwardsWrites(t *testing.T) {
	cfg := dataset.SmallConfig()
	cfg.Users, cfg.Submissions = 200, 20
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sstore, err := shard.FromPlatform(ds.Platform, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.on.Store(true)
	w, err := wrapStore(sstore, tr)
	if err != nil {
		t.Fatal(err)
	}
	bw := w.(digg.BulkWriter)
	subs := make([]digg.SubmitOutcome, 2)
	if err := bw.SubmitMany([]digg.SubmitOp{{User: 1, Title: "a", Interest: 0.5, At: 1e6}, {User: 2, Title: "b", Interest: 0.5, At: 1e6}}, subs); err != nil {
		t.Fatal(err)
	}
	id := subs[0].Story.ID
	out := make([]digg.DiggOutcome, 2)
	if err := bw.DiggMany([]digg.DiggOp{{Story: id, User: 3, At: 1e6 + 1}, {Story: id, User: 3, At: 1e6 + 2}}, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[1].Err == nil {
		t.Fatalf("outcomes %v, want one accepted vote and one repeat", out)
	}
	l := tr.l("shard.digg_many")
	if l.calls.Load() != 1 || l.units.Load() != 1 {
		t.Errorf("digg_many recorded %d calls, %d accepted; want 1, 1", l.calls.Load(), l.units.Load())
	}
	if n := tr.l("shard.submit_many").units.Load(); n != 2 {
		t.Errorf("submit_many recorded %d stories, want 2", n)
	}
}
