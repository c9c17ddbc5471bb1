package obs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"floatfl/internal/checkpoint"
)

// populate builds a registry with one of everything and some activity.
func populate() *Registry {
	r := NewRegistry()
	r.Counter("events_total").Add(41)
	r.Gauge("level").Set(0.375)
	h := r.Histogram("lat_seconds", []float64{1, 5, 25})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	return r
}

func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRestoreIntoFreshRegistry is the resume path: a brand-new registry
// (no metrics registered yet) restored from a snapshot must expose the
// identical bytes, including recreated histograms with parsed bounds.
func TestRestoreIntoFreshRegistry(t *testing.T) {
	src := populate()
	want := exposition(t, src)

	dst := NewRegistry()
	if err := dst.RestoreSnapshot(src.Snapshot()); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if got := exposition(t, dst); got != want {
		t.Fatalf("exposition after restore diverges\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRestoreOverwritesNoise models the engine's restore ordering: the
// target registry has the metrics registered and already polluted by
// rebuild-time activity; restore must erase the noise, keep the handles
// live, and zero metrics absent from the snapshot.
func TestRestoreOverwritesNoise(t *testing.T) {
	src := populate()
	want := exposition(t, src)

	dst := NewRegistry()
	c := dst.Counter("events_total")
	c.Add(999) // warm-up noise
	g := dst.Gauge("level")
	g.Set(123)
	h := dst.Histogram("lat_seconds", []float64{1, 5, 25})
	h.Observe(7)
	extra := dst.Counter("not_in_snapshot_total")
	extra.Add(5)

	if err := dst.RestoreSnapshot(src.Snapshot()); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	// Pre-restore handles observe the restored values (no replacement).
	if c.Value() != 41 {
		t.Fatalf("counter handle reads %d after restore, want 41", c.Value())
	}
	if g.Value() != 0.375 {
		t.Fatalf("gauge handle reads %v after restore, want 0.375", g.Value())
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("histogram handle reads count=%d sum=%v, want 4 / 106.5", h.Count(), h.Sum())
	}
	if extra.Value() != 0 {
		t.Fatalf("metric absent from snapshot reads %d, want 0 (hard reset)", extra.Value())
	}
	got := exposition(t, dst)
	if !strings.Contains(got, "not_in_snapshot_total 0\n") {
		t.Fatalf("zeroed metric missing from exposition:\n%s", got)
	}
	got = strings.Replace(got, "not_in_snapshot_total 0\n", "", 1)
	if got != want {
		t.Fatalf("exposition after noisy restore diverges\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRestoreRejectsBadSnapshots pins the validate-before-write contract:
// every refusal is one of the checkpoint package's typed errors (they were
// bare fmt.Errorf values) and leaves the registry as it was.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	dst := populate()
	want := exposition(t, dst)

	cases := []Snapshot{
		// Kind clash with a registered metric.
		{Gauges: []GaugeSnapshot{{Name: "events_total", Value: 1}}},
		// Histogram without the +Inf terminator.
		{Histograms: []HistogramSnapshot{{Name: "h", Count: 1, Buckets: []Bucket{{LE: "1", Count: 1}}}}},
		// Decreasing cumulative counts.
		{Histograms: []HistogramSnapshot{{Name: "h", Count: 2, Buckets: []Bucket{
			{LE: "1", Count: 2}, {LE: "+Inf", Count: 1}}}}},
		// Bucket layout mismatch with the registered histogram.
		{Histograms: []HistogramSnapshot{{Name: "lat_seconds", Count: 0, Buckets: []Bucket{
			{LE: "1", Count: 0}, {LE: "+Inf", Count: 0}}}}},
		// Unparsable bound.
		{Histograms: []HistogramSnapshot{{Name: "h", Count: 0, Buckets: []Bucket{
			{LE: "wat", Count: 0}, {LE: "+Inf", Count: 0}}}}},
		// Bounds that do not increase.
		{Histograms: []HistogramSnapshot{{Name: "h", Count: 0, Buckets: []Bucket{
			{LE: "2", Count: 0}, {LE: "1", Count: 0}, {LE: "+Inf", Count: 0}}}}},
		// One name twice: the second histogram would be applied over the
		// first one's (shorter) bucket array.
		{Histograms: []HistogramSnapshot{
			{Name: "h", Buckets: []Bucket{{LE: "+Inf", Count: 0}}},
			{Name: "h", Buckets: []Bucket{{LE: "1", Count: 0}, {LE: "+Inf", Count: 0}}}}},
		// One name under two kinds: the next registration would panic.
		{Counters: []CounterSnapshot{{Name: "x", Value: 1}}, Gauges: []GaugeSnapshot{{Name: "x", Value: 1}}},
	}
	for i, snap := range cases {
		err := dst.RestoreSnapshot(snap)
		var fe *checkpoint.FormatError
		var ce *checkpoint.CompatError
		if !errors.As(err, &fe) && !errors.As(err, &ce) {
			t.Fatalf("case %d: got %v, want a FormatError or CompatError", i, err)
		}
		if got := exposition(t, dst); got != want {
			t.Fatalf("case %d: failed restore mutated the registry\n--- got ---\n%s--- want ---\n%s", i, got, want)
		}
	}
}

// TestSnapshotSectionRoundTrip pins the registry's checkpoint section:
// AppendCheckpoint → DecodeSnapshot reproduces the registry's Snapshot,
// also once a metric registered after the last call, or recreated by a
// restore, has made a kept name list stale; a nil registry writes an
// empty one's section; and every strict prefix latches a format error
// instead of yielding a short snapshot.
func TestSnapshotSectionRoundTrip(t *testing.T) {
	section := func(r *Registry) []byte {
		e := checkpoint.NewEnc(0)
		r.AppendCheckpoint(e)
		return e.Bytes()
	}
	check := func(what string, r *Registry) []byte {
		t.Helper()
		blob := section(r)
		d := checkpoint.NewDec(blob)
		got := DecodeSnapshot(d)
		if err := d.Done(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := r.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded snapshot differs:\n got %+v\nwant %+v", what, got, want)
		}
		return blob
	}
	r := populate()
	check("populated", r)
	r.Counter("aardvarks_total").Inc()
	r.Histogram("b_seconds", []float64{0.5}).Observe(1)
	blob := check("after new registrations", r)
	fresh := NewRegistry()
	if err := fresh.RestoreSnapshot(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check("restored", fresh), blob) {
		t.Fatal("a restored registry writes other bytes than its source")
	}
	if !bytes.Equal(section(nil), section(NewRegistry())) {
		t.Fatal("a nil registry writes other bytes than an empty one")
	}
	for n := 0; n < len(blob); n++ {
		d := checkpoint.NewDec(blob[:n])
		DecodeSnapshot(d)
		var fe *checkpoint.FormatError
		if err := d.Done(); !errors.As(err, &fe) {
			t.Fatalf("prefix %d/%d: got %v, want FormatError", n, len(blob), err)
		}
	}
}

// TestRestoreNilRegistry keeps the package's nil-receiver contract.
func TestRestoreNilRegistry(t *testing.T) {
	var r *Registry
	if err := r.RestoreSnapshot(Snapshot{}); err != nil {
		t.Fatalf("nil registry restore: %v", err)
	}
}
