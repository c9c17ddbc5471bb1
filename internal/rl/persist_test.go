package rl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/checkpoint/statefultests"
	"floatfl/internal/opt"
)

// trainedAgent returns an agent with a few visited states so snapshots
// carry a non-trivial table.
func trainedAgent(t testing.TB) *Agent {
	t.Helper()
	a := NewAgent(Config{Seed: 9})
	for i := 0; i < 40; i++ {
		s := State{GB: i % 3, GE: 1, GK: 2, CPU: i % 5, Mem: (i * 3) % 5, Net: i % 2, HF: i % 4}
		tech := a.SelectAction(s)
		if err := a.Update(i, s, tech, i%3 != 0, 0.01*float64(i%7-3)); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestSaveLoadTruncationEveryByte proves every proper prefix of a saved
// agent file fails with the typed truncation error and leaves the loading
// agent's state completely untouched.
func TestSaveLoadTruncationEveryByte(t *testing.T) {
	src := trainedAgent(t)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		dst := NewAgent(Config{Seed: 9})
		err := dst.Load(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("loading %d/%d bytes succeeded", n, len(full))
		}
		if !errors.Is(err, checkpoint.ErrTruncated) {
			t.Fatalf("loading %d/%d bytes: got %v, want ErrTruncated", n, len(full), err)
		}
		if dst.StatesVisited() != 0 || dst.Updates() != 0 {
			t.Fatalf("truncated load at %d bytes mutated the agent", n)
		}
	}
	// And the intact file round-trips.
	dst := NewAgent(Config{Seed: 9})
	if err := dst.Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("intact load: %v", err)
	}
	if dst.StatesVisited() != src.StatesVisited() {
		t.Fatalf("restored %d states, want %d", dst.StatesVisited(), src.StatesVisited())
	}
}

// TestSaveLoadCorruptionDetected flips each byte of the frame and requires
// a typed error with zero agent mutation.
func TestSaveLoadCorruptionDetected(t *testing.T) {
	src := trainedAgent(t)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every byte matters; stride 7 keeps the quadratic sweep fast while
	// still hitting every region (magic, version, kind, length, payload,
	// checksum).
	for i := 0; i < len(full); i += 7 {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x41
		dst := NewAgent(Config{Seed: 9})
		err := dst.Load(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipping byte %d loaded successfully", i)
		}
		var fe *checkpoint.FormatError
		var ve *checkpoint.VersionError
		if !errors.Is(err, checkpoint.ErrChecksum) && !errors.Is(err, checkpoint.ErrTruncated) &&
			!errors.As(err, &fe) && !errors.As(err, &ve) {
			t.Fatalf("flipping byte %d: untyped error %v", i, err)
		}
		if dst.StatesVisited() != 0 || dst.Updates() != 0 {
			t.Fatalf("corrupt load (byte %d) mutated the agent", i)
		}
	}
}

// TestLoadRejectsWrongKind pins that an engine snapshot frame cannot be
// loaded as an agent.
func TestLoadRejectsWrongKind(t *testing.T) {
	framed, err := checkpoint.EncodeBytes("engine-sync", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var fe *checkpoint.FormatError
	if err := NewAgent(Config{Seed: 9}).Load(bytes.NewReader(framed)); !errors.As(err, &fe) {
		t.Fatalf("wrong-kind load: got %v, want FormatError", err)
	}
}

// TestLoadMalformedPayload feeds Load intact frames — right kind, valid
// checksum — whose payload is wrong: cut short inside the table, states
// out of key order, an action list that does not match the table's width,
// bytes after the last field. Each is a *checkpoint.FormatError with the
// agent untouched; a version 1 frame is a *checkpoint.VersionError; and an
// agent with nothing learned yet (empty table, empty cache) loads into an
// agent that still learns.
func TestLoadMalformedPayload(t *testing.T) {
	src := trainedAgent(t)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := checkpoint.Decode(bytes.NewReader(buf.Bytes()), AgentSnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	load := func(payload []byte) (*Agent, error) {
		framed, err := checkpoint.EncodeBytes(AgentSnapshotKind, payload)
		if err != nil {
			t.Fatal(err)
		}
		dst := NewAgent(Config{Seed: 9})
		return dst, dst.Load(bytes.NewReader(framed))
	}
	// A hand-written two-state table over the agent's own action list.
	table := func(keys ...int) []byte {
		e := checkpoint.NewEnc(0)
		e.Int(src.cfg.Bins)
		e.Uvarint(uint64(len(src.actions)))
		for _, a := range src.actions {
			e.String(a.String())
		}
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.Int(k)
			for range src.actions {
				e.Float64(0.5)
				e.Float64(0.25)
				e.Int(1)
			}
		}
		e.FloatsByID(nil)
		return e.Bytes()
	}
	if _, err := load(table(3, 7)); err != nil {
		t.Fatalf("hand-written table: %v", err)
	}
	for name, bad := range map[string][]byte{
		"cut inside the table": payload[:len(payload)/2],
		"states out of order":  table(7, 3),
		"a state twice":        table(3, 3),
		"trailing byte":        append(append([]byte(nil), payload...), 0),
		"not a section":        []byte("{}"),
	} {
		dst, err := load(bad)
		var fe *checkpoint.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: got %v, want FormatError", name, err)
		}
		if dst.StatesVisited() != 0 {
			t.Fatalf("%s: rejected load mutated the agent", name)
		}
	}

	// The file the previous format wrote — container version 1 — has no
	// reader: a VersionError, whatever its payload.
	old := append([]byte(nil), buf.Bytes()[:buf.Len()-sha256.Size]...)
	binary.BigEndian.PutUint32(old[8:], 1)
	sum := sha256.Sum256(old)
	var ve *checkpoint.VersionError
	if err := NewAgent(Config{Seed: 9}).Load(bytes.NewReader(append(old, sum[:]...))); !errors.As(err, &ve) || ve.Got != 1 {
		t.Fatalf("version 1 file: got %v, want VersionError{Got: 1}", err)
	}

	dst, err := load(table())
	if err != nil {
		t.Fatalf("empty table: %v", err)
	}
	s := State{GB: 1, GE: 1, GK: 2, CPU: 3, Mem: 1, Net: 1, HF: 2}
	if err := dst.Update(0, s, dst.SelectAction(s), true, 0.01); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCompatTyped pins that configuration mismatches surface as
// *checkpoint.CompatError.
func TestLoadCompatTyped(t *testing.T) {
	src := trainedAgent(t)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var ce *checkpoint.CompatError
	if err := NewAgent(Config{Seed: 9, Bins: 7}).Load(bytes.NewReader(buf.Bytes())); !errors.As(err, &ce) {
		t.Fatalf("bins mismatch: got %v, want CompatError", err)
	}
}

// TestReadAgentRoundTrip: ReadAgent takes the bin resolution and the
// action space from the file, so a 7-bin, 9-action agent reads back
// without any configuration and re-saves to the same bytes.
func TestReadAgentRoundTrip(t *testing.T) {
	src := NewAgent(Config{Seed: 4, Bins: 7, Actions: extendedActions()})
	for i := 0; i < 60; i++ {
		s := State{GB: i % 3, CPU: i % 7, Mem: (i * 3) % 7, Net: i % 2, HF: i % 6}
		if err := src.Update(i, s, src.SelectAction(s), i%4 != 0, 0.01*float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := src.Save(&saved); err != nil {
		t.Fatal(err)
	}
	a, err := ReadAgent(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Config().Bins != 7 || len(a.Actions()) != 9 || a.Actions()[8] != opt.TechCompress {
		t.Fatalf("read %d bins and actions %v, want 7 bins and %v", a.Config().Bins, a.Actions(), extendedActions())
	}
	var again bytes.Buffer
	if err := a.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Fatal("ReadAgent → Save differs from the file it read")
	}
}

// TestReadAgentRejectsUnusableShapes: a snapshot that decodes but cannot
// describe an agent — no bins, no actions, an unknown action — is a
// *checkpoint.FormatError.
func TestReadAgentRejectsUnusableShapes(t *testing.T) {
	for name, tc := range map[string]struct {
		bins    int
		actions []string
	}{
		"zero bins":      {0, []string{"quant8"}},
		"no actions":     {5, nil},
		"unknown action": {5, []string{"quant8", "teleport"}},
	} {
		e := checkpoint.NewEnc(0)
		e.Int(tc.bins)
		e.Uvarint(uint64(len(tc.actions)))
		for _, a := range tc.actions {
			e.String(a)
		}
		e.Uvarint(0)
		e.FloatsByID(nil)
		framed, err := checkpoint.EncodeBytes(AgentSnapshotKind, e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var fe *checkpoint.FormatError
		if _, err := ReadAgent(bytes.NewReader(framed)); !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want FormatError", name, err)
		}
	}
}

// TestRestoreCheckpointRejectsScheduleMismatch pins that a checkpoint
// taken under one exploration schedule cannot be restored into an agent
// configured for another: the decay is a function of round/TotalRounds,
// so a -rounds 3 prefix is a *different experiment* than rounds 0-2 of a
// -rounds 6 run and resuming it would silently diverge. Save/Load stays
// permissive on purpose (transfer learning across schedules); only the
// bit-identity checkpoint path enforces this.
func TestRestoreCheckpointRejectsScheduleMismatch(t *testing.T) {
	src := NewAgent(Config{Seed: 9, TotalRounds: 3})
	blob, err := src.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	var ce *checkpoint.CompatError
	dst := NewAgent(Config{Seed: 9, TotalRounds: 6})
	if err := dst.RestoreCheckpoint(blob); !errors.As(err, &ce) || ce.Field != "agent_total_rounds" {
		t.Fatalf("TotalRounds mismatch: got %v, want CompatError{agent_total_rounds}", err)
	}
	dst = NewAgent(Config{Seed: 10, TotalRounds: 3})
	if err := dst.RestoreCheckpoint(blob); !errors.As(err, &ce) || ce.Field != "agent_seed" {
		t.Fatalf("Seed mismatch: got %v, want CompatError{agent_seed}", err)
	}
	if dst.StatesVisited() != 0 || dst.Updates() != 0 {
		t.Fatal("rejected restore mutated the agent")
	}
	// Matching config restores cleanly.
	dst = NewAgent(Config{Seed: 9, TotalRounds: 3})
	if err := dst.RestoreCheckpoint(blob); err != nil {
		t.Fatalf("matching restore: %v", err)
	}
}

// TestAgentCheckpointResume proves full-fidelity mid-run state capture:
// 2N updates ≡ N updates → checkpoint → restore into fresh agent → N more,
// on action choices, reward history, and checkpoint byte-stability.
func TestAgentCheckpointResume(t *testing.T) {
	run := func(a *Agent, start, n int) []string {
		var picks []string
		for i := start; i < start+n; i++ {
			s := State{GB: i % 3, CPU: i % 5, Mem: (i * 7) % 5, Net: (i * 3) % 5, HF: i % 5}
			tech := a.SelectAction(s)
			picks = append(picks, tech.String())
			if err := a.Update(i, s, tech, i%4 != 1, 0.02*float64(i%5-2)); err != nil {
				t.Fatal(err)
			}
		}
		return picks
	}

	full := NewAgent(Config{Seed: 3})
	fullPicks := run(full, 0, 120)

	prefix := NewAgent(Config{Seed: 3})
	prefixPicks := run(prefix, 0, 60)
	blob, err := prefix.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := prefix.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("CheckpointState is not byte-stable")
	}

	resumed := NewAgent(Config{Seed: 3})
	if err := resumed.RestoreCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	resumedPicks := run(resumed, 60, 60)

	got := append(append([]string(nil), prefixPicks...), resumedPicks...)
	for i := range got {
		if got[i] != fullPicks[i] {
			t.Fatalf("action choice diverges at update %d: %s vs %s", i, got[i], fullPicks[i])
		}
	}
	fh, rh := full.RewardHistory(), resumed.RewardHistory()
	if len(fh) != len(rh) {
		t.Fatalf("reward history length %d, want %d", len(rh), len(fh))
	}
	for i := range fh {
		if fh[i] != rh[i] {
			t.Fatalf("reward history diverges at %d", i)
		}
	}
	if full.Updates() != resumed.Updates() {
		t.Fatalf("updates %d, want %d", resumed.Updates(), full.Updates())
	}
}

// FuzzAgentLoad fuzzes the agent file decoder, not the checksum: every
// mutated payload is re-framed with a correct length and SHA-256, so the
// fuzzer reaches decodeLearned. The seeds are real Save outputs. ReadAgent
// must fail with a typed checkpoint error or return an agent whose Save
// reads back and saves the same bytes. Load must not panic; it fails with
// a typed checkpoint error and leaves the agent saving exactly what it
// saved before, or it succeeds and the agent's next Save loads into a
// fresh agent that saves the same bytes. For both, allocation is
// bounded by the payload: the costliest byte is a state of a zero-width
// table, one payload byte for a preallocated map slot of up to ~90 bytes.
func FuzzAgentLoad(f *testing.F) {
	save := func(t testing.TB, a *Agent) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, a := range []*Agent{trainedAgent(f), NewAgent(Config{Seed: 9}), NewAgent(Config{Seed: 9, Bins: 7}),
		NewAgent(Config{Seed: 9, Actions: extendedActions()})} {
		payload, err := checkpoint.Decode(bytes.NewReader(save(f, a)), AgentSnapshotKind)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		frame, err := checkpoint.EncodeBytes(AgentSnapshotKind, payload)
		if err != nil {
			t.Fatal(err)
		}
		bound := uint64(128*len(frame) + 1<<20)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		read, rerr := ReadAgent(bytes.NewReader(frame))
		runtime.ReadMemStats(&ms1)
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > bound {
			t.Fatalf("reading a %d-byte payload allocated %d bytes (bound %d)", len(payload), grew, bound)
		}
		if rerr != nil {
			if !statefultests.Typed(rerr) {
				t.Fatalf("untyped ReadAgent error: %v", rerr)
			}
		} else {
			saved := save(t, read)
			again, err := ReadAgent(bytes.NewReader(saved))
			if err != nil {
				t.Fatalf("a read agent's own file does not read: %v", err)
			}
			if !bytes.Equal(save(t, again), saved) {
				t.Fatal("Save → ReadAgent → Save is not a byte fixed point")
			}
		}

		dst := NewAgent(Config{Seed: 9})
		s := State{GB: 1, GE: 1, GK: 2, CPU: 3, Mem: 1, Net: 1, HF: 2}
		if err := dst.Update(0, s, dst.SelectAction(s), true, 0.01); err != nil {
			t.Fatal(err)
		}
		before := save(t, dst)
		runtime.ReadMemStats(&ms0)
		err = dst.Load(bytes.NewReader(frame))
		runtime.ReadMemStats(&ms1)
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > bound {
			t.Fatalf("loading a %d-byte payload allocated %d bytes (bound %d)", len(payload), grew, bound)
		}
		if err != nil {
			if !statefultests.Typed(err) {
				t.Fatalf("untyped load error: %v", err)
			}
			if !bytes.Equal(save(t, dst), before) {
				t.Fatalf("a rejected load (%v) changed what the agent saves", err)
			}
			return
		}
		saved := save(t, dst)
		again := NewAgent(Config{Seed: 9})
		if err := again.Load(bytes.NewReader(saved)); err != nil {
			t.Fatalf("a loaded agent's own file does not load: %v", err)
		}
		if !bytes.Equal(save(t, again), saved) {
			t.Fatal("Save → Load → Save is not a byte fixed point")
		}
	})
}
