// Sharded checkpoint store: spread a run's chunk packs over several root
// directories (one device or mount per root), write checkpoints into them
// from concurrent writers, and read everything back through the flag-free
// open path.
//
//	go run ./examples/sharded_store
//
// The demo drives the store API directly (record-time integration is one
// option away: flor.Record(dir, factory, flor.Shards(16))). It shows the
// two things the sharded layout buys:
//
//  1. Scale-out past one disk: packs land across multiple roots, chosen
//     here as ./shard-a and ./shard-b next to the run directory. The root
//     list persists in the run directory's SHARDS file, so replay, the
//     serving daemon, and this program's read-back phase all find the
//     packs with a plain store.Open / store.OpenReadOnly.
//  2. Concurrent writes: several goroutines PutSections at once; shards
//     serialize their own appends, so writers contend per shard instead of
//     on one global pack lock.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/xrand"
)

// payload builds n bytes of deterministic, incompressible data — a stand-in
// for trained float tensors.
func payload(n int, seed uint64) []byte {
	rng := xrand.New(seed)
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

func main() {
	base, err := os.MkdirTemp("", "flor-sharded-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)
	runDir := filepath.Join(base, "run")
	shardA := filepath.Join(base, "shard-a")
	shardB := filepath.Join(base, "shard-b")

	// Open a fanout-16 sharded store whose packs spread over the run
	// directory plus two extra roots ("devices").
	st, err := store.OpenWith(runDir, store.Options{
		ShardFanout: store.DefaultShardFanout,
		ShardDirs:   []string{shardA, shardB},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened %s: layout %s, packs across 3 roots\n", runDir, st.Layout())

	// A frozen backbone shared by every writer, plus per-writer state: the
	// fine-tuning-family shape (RTE/CoLA share frozen backbones).
	backbone := payload(8*ckptfmt.DefaultChunkSize, 0xBACB01)

	// Concurrent writes: four writers materialize checkpoints at once.
	// PutSections is safe for concurrent use — each shard serializes its
	// own appends, and the manifest commit is atomic per checkpoint.
	const writers, epochs = 4, 3
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				head := payload(ckptfmt.DefaultChunkSize, uint64(0xF00+w*100+e))
				_, err := st.PutSections(store.Key{LoopID: fmt.Sprintf("tune-%d", w), Exec: e}, []store.Section{
					{Name: "backbone", Data: backbone},
					{Name: "head", Data: head},
					{Name: "step", Data: []byte(fmt.Sprintf("w%d-e%d", w, e))},
				}, 0, 0, 0)
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	d := st.Dedup()
	fmt.Printf("wrote %d checkpoints from %d concurrent writers: %.1f MB logical, %.1f MB stored (dedup %.1fx)\n",
		writers*epochs, writers, float64(d.LogicalBytes)/(1<<20), float64(d.StoredEncBytes)/(1<<20), d.Ratio())

	// Where did the packs land? Count per root.
	for _, root := range []string{runDir, shardA, shardB} {
		entries, _ := os.ReadDir(root)
		packs := 0
		for _, e := range entries {
			if len(e.Name()) == len("CHUNKS-00") && e.Name()[:7] == "CHUNKS-" {
				packs++
			}
		}
		fmt.Printf("  %-8s %2d shard packs\n", filepath.Base(root), packs)
	}

	// Read back through the daemon's flag-free shared open path (the SHARDS
	// file tells the store where the packs live), the way replay reads: one
	// Resolve per checkpoint, then ReadInto for the sections it wants.
	ro, err := store.OpenReadOnly(runDir)
	if err != nil {
		log.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for e := 0; e < epochs; e++ {
			key := store.Key{LoopID: fmt.Sprintf("tune-%d", w), Exec: e}
			c, err := ro.Resolve(key)
			if err != nil {
				log.Fatalf("resolve %s: %v", key, err)
			}
			secs, err := c.ReadInto(func(name string) bool { return name == "backbone" }, nil, nil, nil)
			if err != nil {
				log.Fatalf("read back %s: %v", key, err)
			}
			if !bytes.Equal(secs[0].Data, backbone) {
				log.Fatalf("%s: backbone came back wrong (%d bytes)", key, len(secs[0].Data))
			}
		}
	}
	fmt.Println("read back every checkpoint via store.OpenReadOnly — no layout flags needed")
}
