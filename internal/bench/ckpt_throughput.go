package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/store/remote"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/workloads"
	"flor.dev/flor/internal/xrand"
)

// CkptThroughputRow is one (scenario, format) measurement of the checkpoint
// storage engine: serialize+write and read+decode throughput over the
// logical payload volume, plus the chunk-dedup ratio the run achieved.
// Spool-cadence rows additionally report spool throughput: the pack volume
// an every-epoch background spool kept compressed, per second of spool
// work.
type CkptThroughputRow struct {
	Scenario    string  `json:"scenario"` // "frozen", "mutating", "spool-cadence", "finetune-family" or "remote-restore"
	Format      string  `json:"format"`   // "v1-blob", "v2-frames", "v2-pack", "v2-sharded16", "v2-private", "v2-pooled", "remote-cold" or "remote-warm"
	LogicalMB   float64 `json:"logical_mb"`
	MatMBps     float64 `json:"materialize_mbps"`
	ResMBps     float64 `json:"restore_mbps"`
	DedupRatio  float64 `json:"dedup_ratio"`
	Checkpoints int     `json:"checkpoints"`
	SpoolMBps   float64 `json:"spool_mbps,omitempty"`
}

// CkptThroughputReport compares format v1 (one monolithic blob per
// checkpoint, single-goroutine codec) against format v2 (parallel frames
// with content-addressed dedup) on the same workload, and — on the
// spool-cadence scenario — the single CHUNKS pack against the hash-prefix
// sharded store at fanout 16.
type CkptThroughputReport struct {
	Rows []CkptThroughputRow `json:"rows"`
	// MatSpeedupFrozen / ResSpeedupFrozen are v2-over-v1 throughput ratios
	// on the frozen-layer scenario (the paper's RTE/CoLA shape: a large
	// frozen backbone checkpointed every epoch).
	MatSpeedupFrozen   float64 `json:"materialize_speedup_frozen"`
	ResSpeedupFrozen   float64 `json:"restore_speedup_frozen"`
	MatSpeedupMutating float64 `json:"materialize_speedup_mutating"`
	ResSpeedupMutating float64 `json:"restore_speedup_mutating"`
	DedupRatioFrozen   float64 `json:"dedup_ratio_frozen"`
	// ShardedSpoolSpeedup is the sharded-over-single-pack spool-throughput
	// ratio on the frozen-layer spool cadence (the sharded store
	// recompresses only dirty shards; acceptance bar ≥ 1.5 at fanout 16).
	// ShardedMatSpeedup and ShardedRestoreSpeedup are the corresponding
	// materialize/restore ratios and must not regress (~1.0).
	ShardedSpoolSpeedup   float64 `json:"sharded_spool_speedup"`
	ShardedMatSpeedup     float64 `json:"sharded_materialize_speedup"`
	ShardedRestoreSpeedup float64 `json:"sharded_restore_speedup"`
	// RemoteWarmRestoreSpeedup is the remote-restore scenario's warm-over-
	// cold restore-throughput ratio: the same run restored through the
	// object backend with an empty chunk-cache tier versus a populated one.
	// Warm restores skip the remote ranged GETs the cache tier absorbed, so
	// the ratio is the cache tier's whole value proposition in one number.
	RemoteWarmRestoreSpeedup float64 `json:"remote_warm_restore_speedup"`
	// FamilyStorageReduction is the finetune-family scenario's stored-bytes
	// ratio: per-run private packs over one shared chunk pool, across a
	// 4-run family re-checkpointing a frozen backbone (acceptance bar ≥ 3x
	// — the pool stores the backbone once instead of once per run).
	// FamilySharedRestoreSpeedup is the family restore-throughput ratio
	// from the pool-wide payload cache (the backbone decodes once for the
	// family instead of once per run).
	FamilyStorageReduction     float64 `json:"family_storage_reduction"`
	FamilySharedRestoreSpeedup float64 `json:"family_shared_restore_speedup"`
}

// ckptScenario builds the environment values for one scenario and a mutator
// applied (untimed) before each checkpoint.
type ckptScenario struct {
	name   string
	vals   []backmat.NamedValue
	mutate func(epoch int)
}

// ckptScenarios returns the two workloads: "frozen" — a multi-MB frozen
// transformer plus a small step tensor (dedup's best case, the fine-tuning
// workloads' shape) — and "mutating" — a multi-MB tensor fully rewritten
// every epoch (dedup's worst case, isolating pure parallel-codec speedup).
func ckptScenarios(scale workloads.Scale) []ckptScenario {
	vocab, seqLen, dim, hidden, depth := 4096, 24, 96, 192, 3
	mutLen := 1 << 19 // 4 MB of float64s
	if scale == workloads.Smoke {
		vocab, seqLen, dim, hidden, depth = 512, 12, 32, 64, 2
		mutLen = 1 << 15
	}
	frozenModel := nn.NewTransformer(xrand.New(0xC4A7), vocab, seqLen, dim, hidden, depth, 2)
	step := &value.Tensor{T: tensor.New(8)}
	frozen := ckptScenario{
		name: "frozen",
		vals: []backmat.NamedValue{
			{Name: "net", V: &value.Model{M: frozenModel}},
			{Name: "step", V: step},
		},
		mutate: func(epoch int) { step.T.Data()[0] = float64(epoch) },
	}

	mutRng := xrand.New(0xD1CE)
	mut := &value.Tensor{T: tensor.Randn(mutRng, 1, mutLen)}
	mutating := ckptScenario{
		name: "mutating",
		vals: []backmat.NamedValue{{Name: "w", V: mut}},
		mutate: func(epoch int) {
			d := mut.T.Data()
			for i := range d {
				d[i] = mutRng.Float64()
			}
		},
	}
	return []ckptScenario{frozen, mutating}
}

// snapshotAll snapshots every value (the training-thread cost, identical
// under both formats and excluded from the timed region).
func snapshotAll(vals []backmat.NamedValue) []backmat.NamedPayload {
	items := make([]backmat.NamedPayload, len(vals))
	for i, nv := range vals {
		items[i] = backmat.NamedPayload{Name: nv.Name, Payload: nv.V.Snapshot()}
	}
	return items
}

// runCkptFormat materializes and restores `epochs` checkpoints of sc under
// the given segment format, timing only serialize+write and read+decode.
func (s *Session) runCkptFormat(sc ckptScenario, format int, epochs int) (CkptThroughputRow, error) {
	row := CkptThroughputRow{Scenario: sc.name, Checkpoints: epochs}
	st, err := store.OpenFormat(s.tempDir(fmt.Sprintf("ckpt-tp-%s-v%d", sc.name, format)), format)
	if err != nil {
		return row, err
	}
	if format == store.FormatV2 {
		row.Format = "v2-frames"
	} else {
		row.Format = "v1-blob"
	}

	var logical int64
	var matNs int64
	for e := 0; e < epochs; e++ {
		sc.mutate(e)
		items := snapshotAll(sc.vals)
		key := store.Key{LoopID: "train", Exec: e}
		t0 := time.Now()
		if format == store.FormatV2 {
			secs := backmat.EncodeSections(items)
			if _, err := st.PutSections(key, secs, 0, 0, 0); err != nil {
				return row, err
			}
		} else {
			// The seed's write path: one monolithic blob from a single
			// goroutine.
			if _, err := st.Put(key, backmat.EncodeBundle(items), 0, 0, 0); err != nil {
				return row, err
			}
		}
		matNs += time.Since(t0).Nanoseconds()
	}
	for _, m := range st.Metas() {
		logical += m.Size
	}

	// Restore with the same machinery replay uses: a content-addressed
	// payload cache over parallel section decode. Format v1 has no content
	// identity, so it always pays the full read+decode. The sweep runs
	// five times — fresh cache each pass, so no pass rides the last one's
	// decoded payloads — and the fastest pass counts: the timed region is
	// tens of milliseconds, so one descheduling blip would otherwise
	// dominate the v2/v1 ratio. Writeback of the bytes materialize just
	// dirtied is drained first so the flusher can't fire mid-sweep.
	drainWriteback()
	var resNs int64
	for pass := 0; pass < 5; pass++ {
		cache := backmat.NewPayloadCache(0)
		var passNs int64
		for e := 0; e < epochs; e++ {
			key := store.Key{LoopID: "train", Exec: e}
			t0 := time.Now()
			var items []backmat.NamedPayload
			secs, ok, err := st.GetSections(key, cache.Contains)
			if err != nil {
				return row, err
			}
			if ok {
				items, err = backmat.DecodeSectionsCached(cache, secs)
			} else {
				raw, gerr := st.Get(key)
				if gerr != nil {
					return row, gerr
				}
				items, err = backmat.DecodeBundle(raw)
			}
			if err != nil {
				return row, err
			}
			passNs += time.Since(t0).Nanoseconds()
			if len(items) != len(sc.vals) {
				return row, fmt.Errorf("bench: ckpt-throughput: epoch %d decoded %d items, want %d", e, len(items), len(sc.vals))
			}
		}
		if pass == 0 || passNs < resNs {
			resNs = passNs
		}
	}

	mb := float64(logical) / (1 << 20)
	row.LogicalMB = mb
	row.MatMBps = mb / (float64(matNs) / 1e9)
	row.ResMBps = mb / (float64(resNs) / 1e9)
	row.DedupRatio = st.Dedup().Ratio()
	return row, nil
}

// runSpoolCadence drives the frozen-layer workload against a v2 store at
// the given shard fanout (1 = the single CHUNKS pack) under an every-epoch
// background-spool cadence (paper §6: checkpoints are "compressed by a
// background process, before being spooled to an S3 bucket"). Spooled
// objects are immutable S3-style artifacts, so after every epoch the spool
// must re-cover every pack that grew: the single pack grows every epoch and
// is recompressed wholesale, while the sharded store recompresses only the
// shards the epoch's fresh chunks dirtied. Spool throughput is the pack
// volume kept covered (current pack bytes, summed over the cadence) per
// second of spool work; materialize and restore are timed like the other
// scenarios.
func (s *Session) runSpoolCadence(sc ckptScenario, fanout, epochs int) (CkptThroughputRow, error) {
	row := CkptThroughputRow{Scenario: "spool-cadence", Checkpoints: epochs}
	if fanout > 1 {
		row.Format = fmt.Sprintf("v2-sharded%d", fanout)
	} else {
		row.Format = "v2-pack"
	}
	dir := s.tempDir(fmt.Sprintf("ckpt-spool-%s", row.Format))
	st, err := store.OpenWith(dir, store.Options{ShardFanout: fanout})
	if err != nil {
		return row, err
	}

	var matNs, spoolNs, demand int64
	for e := 0; e < epochs; e++ {
		sc.mutate(e)
		items := snapshotAll(sc.vals)
		key := store.Key{LoopID: "train", Exec: e}
		t0 := time.Now()
		secs := backmat.EncodeSections(items)
		if _, err := st.PutSections(key, secs, 0, 0, 0); err != nil {
			return row, err
		}
		matNs += time.Since(t0).Nanoseconds()
		demand += st.Dedup().StoredEncBytes // pack volume this spool pass must cover
		t0 = time.Now()
		if _, err := st.Spool(); err != nil {
			return row, err
		}
		spoolNs += time.Since(t0).Nanoseconds()
	}
	var logical int64
	for _, m := range st.Metas() {
		logical += m.Size
	}

	// Restore cold, through the shared read-only open path the daemon uses,
	// so sharded reads exercise the per-shard fetch fan-out.
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		return row, err
	}
	drainWriteback()
	var resNs int64
	for pass := 0; pass < 5; pass++ {
		cache := backmat.NewPayloadCache(0)
		var passNs int64
		for e := 0; e < epochs; e++ {
			t0 := time.Now()
			secs, ok, err := ro.GetSections(store.Key{LoopID: "train", Exec: e}, cache.Contains)
			if err != nil || !ok {
				return row, fmt.Errorf("bench: spool-cadence restore epoch %d: ok=%v err=%v", e, ok, err)
			}
			if _, err := backmat.DecodeSectionsCached(cache, secs); err != nil {
				return row, err
			}
			passNs += time.Since(t0).Nanoseconds()
		}
		if pass == 0 || passNs < resNs {
			resNs = passNs
		}
	}

	mb := float64(logical) / (1 << 20)
	row.LogicalMB = mb
	row.MatMBps = mb / (float64(matNs) / 1e9)
	row.ResMBps = mb / (float64(resNs) / 1e9)
	row.SpoolMBps = float64(demand) / (1 << 20) / (float64(spoolNs) / 1e9)
	row.DedupRatio = st.Dedup().Ratio()
	return row, nil
}

// uploadRemoteRun materializes sc's run in a local store, uploads it to a
// filesystem object store, and fetches the control plane a read-only remote
// open needs. tag keeps concurrent scenarios' temp directories apart.
func (s *Session) uploadRemoteRun(sc ckptScenario, epochs int, tag string) (ctl string, obj remote.ObjectStore, logical int64, err error) {
	dir := s.tempDir("ckpt-remote-run-" + tag)
	st, err := store.OpenWith(dir, store.Options{ShardFanout: store.DefaultShardFanout})
	if err != nil {
		return "", nil, 0, err
	}
	for e := 0; e < epochs; e++ {
		sc.mutate(e)
		secs := backmat.EncodeSections(snapshotAll(sc.vals))
		if _, err := st.PutSections(store.Key{LoopID: "train", Exec: e}, secs, 0, 0, 0); err != nil {
			return "", nil, 0, err
		}
	}
	for _, m := range st.Metas() {
		logical += m.Size
	}
	fs, err := remote.NewFSStore(s.tempDir("ckpt-remote-obj-" + tag))
	if err != nil {
		return "", nil, 0, err
	}
	if _, err := remote.UploadRun(fs, dir, "bench"); err != nil {
		return "", nil, 0, err
	}
	ctl = s.tempDir("ckpt-remote-ctl-" + tag)
	if _, err := remote.FetchControlPlane(fs, "bench", ctl); err != nil {
		return "", nil, 0, err
	}
	return ctl, fs, logical, nil
}

// runRemoteRestore uploads a frozen-scenario run to a local filesystem
// object store and restores it twice through the remote object backend: once
// against an empty chunk-cache tier (every pack byte a ranged GET) and once
// against the tier the cold pass populated. The two rows land in the report
// as "remote-cold" / "remote-warm", and their restore ratio is the cache
// tier's headline number. The payload cache is fresh per pass, so the
// comparison isolates the chunk-cache tier, not decoded-payload reuse.
func (s *Session) runRemoteRestore(sc ckptScenario, epochs int) (cold, warm CkptThroughputRow, err error) {
	cold = CkptThroughputRow{Scenario: "remote-restore", Format: "remote-cold", Checkpoints: epochs}
	warm = CkptThroughputRow{Scenario: "remote-restore", Format: "remote-warm", Checkpoints: epochs}
	ctl, obj, logical, err := s.uploadRemoteRun(sc, epochs, "tier")
	if err != nil {
		return cold, warm, err
	}
	tier, err := cachetier.New("", 1<<30)
	if err != nil {
		return cold, warm, err
	}
	backend := remote.NewObjectBackend(remote.Retry(obj, remote.Policy{}), remote.PacksPrefix("bench"), tier)
	ro, err := store.OpenWith(ctl, store.Options{ReadOnly: true, Backend: backend})
	if err != nil {
		return cold, warm, err
	}

	drainWriteback()
	sweep := func() (int64, error) {
		cache := backmat.NewPayloadCache(0)
		var ns int64
		for e := 0; e < epochs; e++ {
			t0 := time.Now()
			secs, ok, err := ro.GetSections(store.Key{LoopID: "train", Exec: e}, cache.Contains)
			if err != nil || !ok {
				return 0, fmt.Errorf("bench: remote-restore epoch %d: ok=%v err=%v", e, ok, err)
			}
			if _, err := backmat.DecodeSectionsCached(cache, secs); err != nil {
				return 0, err
			}
			ns += time.Since(t0).Nanoseconds()
		}
		return ns, nil
	}
	coldNs, err := sweep() // empty tier: every pack byte is a ranged GET
	if err != nil {
		return cold, warm, err
	}
	var warmNs int64 // tier populated by the cold pass; best of five
	for pass := 0; pass < 5; pass++ {
		ns, err := sweep()
		if err != nil {
			return cold, warm, err
		}
		if pass == 0 || ns < warmNs {
			warmNs = ns
		}
	}

	mb := float64(logical) / (1 << 20)
	cold.LogicalMB, warm.LogicalMB = mb, mb
	cold.ResMBps = mb / (float64(coldNs) / 1e9)
	warm.ResMBps = mb / (float64(warmNs) / 1e9)
	return cold, warm, nil
}

// CkptThroughput measures checkpoint materialize/restore throughput for both
// segment formats over both scenarios, plus the spool-cadence comparison of
// the single-pack and sharded v2 layouts, and prints the comparison plus a
// machine-readable BENCH JSON line.
func (s *Session) CkptThroughput(epochs int) (*CkptThroughputReport, error) {
	rep := &CkptThroughputReport{}
	byKey := map[string]CkptThroughputRow{}
	for _, sc := range ckptScenarios(s.Scale) {
		for _, format := range []int{store.FormatV1, store.FormatV2} {
			row, err := s.runCkptFormat(sc, format, epochs)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, row)
			byKey[row.Scenario+"/"+row.Format] = row
		}
	}
	// Spool cadence: the frozen-layer workload against the single pack and
	// the fanout-16 sharded layout.
	frozenSc := ckptScenarios(s.Scale)[0]
	for _, fanout := range []int{1, store.DefaultShardFanout} {
		row, err := s.runSpoolCadence(frozenSc, fanout, epochs)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
		byKey[row.Scenario+"/"+row.Format] = row
	}
	// Remote restore: the frozen run served from an object store, cold vs
	// warm chunk-cache tier.
	coldRow, warmRow, err := s.runRemoteRestore(frozenSc, epochs)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, coldRow, warmRow)
	if coldRow.ResMBps > 0 {
		rep.RemoteWarmRestoreSpeedup = warmRow.ResMBps / coldRow.ResMBps
	}
	// Fine-tuning family: per-run private packs vs one shared chunk pool.
	privRow, poolRow, reduction, restoreSpeedup, err := s.FinetuneFamily(epochs)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, privRow, poolRow)
	rep.FamilyStorageReduction = reduction
	rep.FamilySharedRestoreSpeedup = restoreSpeedup
	speedup := func(scenario string, f func(CkptThroughputRow) float64) float64 {
		v1 := f(byKey[scenario+"/v1-blob"])
		if v1 == 0 {
			return 0
		}
		return f(byKey[scenario+"/v2-frames"]) / v1
	}
	mat := func(r CkptThroughputRow) float64 { return r.MatMBps }
	res := func(r CkptThroughputRow) float64 { return r.ResMBps }
	rep.MatSpeedupFrozen = speedup("frozen", mat)
	rep.ResSpeedupFrozen = speedup("frozen", res)
	rep.MatSpeedupMutating = speedup("mutating", mat)
	rep.ResSpeedupMutating = speedup("mutating", res)
	rep.DedupRatioFrozen = byKey["frozen/v2-frames"].DedupRatio
	pack := byKey["spool-cadence/v2-pack"]
	sharded := byKey[fmt.Sprintf("spool-cadence/v2-sharded%d", store.DefaultShardFanout)]
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.ShardedSpoolSpeedup = ratio(sharded.SpoolMBps, pack.SpoolMBps)
	rep.ShardedMatSpeedup = ratio(sharded.MatMBps, pack.MatMBps)
	rep.ShardedRestoreSpeedup = ratio(sharded.ResMBps, pack.ResMBps)

	s.printf("\nCheckpoint throughput: format v1 (single blob) vs v2 (parallel frames + dedup),\n")
	s.printf("plus the spool cadence: single pack vs hash-prefix shards (fanout %d).\n", store.DefaultShardFanout)
	s.printf("%d checkpoints per cell; MB/s over the logical payload volume.\n", epochs)
	s.printf("%-14s %-12s %10s %14s %12s %8s %12s\n", "scenario", "format", "logical", "materialize", "restore", "dedup", "spool")
	for _, r := range rep.Rows {
		spool := "-"
		if r.SpoolMBps > 0 {
			spool = fmt.Sprintf("%9.1fMB/s", r.SpoolMBps)
		}
		s.printf("%-14s %-12s %8.1fMB %11.1fMB/s %9.1fMB/s %7.2fx %12s\n",
			r.Scenario, r.Format, r.LogicalMB, r.MatMBps, r.ResMBps, r.DedupRatio, spool)
	}
	s.printf("v2 speedup: frozen %0.2fx materialize / %0.2fx restore; mutating %0.2fx / %0.2fx\n",
		rep.MatSpeedupFrozen, rep.ResSpeedupFrozen, rep.MatSpeedupMutating, rep.ResSpeedupMutating)
	s.printf("sharded vs single pack: %0.2fx spool / %0.2fx materialize / %0.2fx restore\n",
		rep.ShardedSpoolSpeedup, rep.ShardedMatSpeedup, rep.ShardedRestoreSpeedup)
	s.printf("finetune family (%d runs), pooled vs private packs: %0.2fx storage reduction / %0.2fx shared-restore\n",
		familyRuns, rep.FamilyStorageReduction, rep.FamilySharedRestoreSpeedup)
	s.printf("remote restore, warm vs cold chunk-cache tier: %0.2fx\n", rep.RemoteWarmRestoreSpeedup)

	js, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	s.printf("BENCH JSON %s\n", js)
	return rep, nil
}
