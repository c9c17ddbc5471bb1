// Package dist is a minimal but real federated-learning deployment over
// HTTP: an aggregator server that hands out the global model and collects
// compressed updates, and a client runtime that trains locally and reports
// its resource state each round. It exists to demonstrate the paper's
// non-intrusiveness claim outside the simulator: the server embeds the
// same fl.Controller interface (FLOAT, heuristic, static, or none) and the
// wire protocol carries the same quantized/pruned updates the simulator
// models, encoded with the opt codec.
//
// The protocol is deliberately small:
//
//	POST /v1/register  {name, gflops, memory_mb}        -> {client_id, training config}
//	POST /v1/task      {client_id, resources}            -> frame{round, technique, lease} + model | 204
//	POST /v1/update    frame{client_id, round, ...} + delta -> 200 | 409 (stale round/lease)
//	GET  /v1/status                                      -> {round, leases, drops, holdout accuracy}
//
// Every body is plain JSON except the two that carry a blob — the
// /v1/task response (the global model, nn binary format) and the
// /v1/update request (the delta, opt codec) — which are one frame each:
//
//	uint32 LE meta length | meta JSON | raw blob to the end of the body
//
// where the meta JSON is the UpdateRequest, or the TaskResponse without its
// blob field. appendFrame and splitFrame below are the only writer and
// parser of that layout; server, client and tests all go through them.
//
// Failure semantics (see DESIGN.md "Failure model & recovery"): register
// is idempotent per client name; every handed-out task carries a lease the
// server reclaims on silent death; 204 (no slot) and 409 (stale round) are
// terminal protocol outcomes, while transport errors and 5xx are transient
// and retried by the client with seeded exponential backoff.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"

	"floatfl/internal/device"
)

// frameHeaderLen is the uint32 meta length a frame starts with.
const frameHeaderLen = 4

// frameType is the Content-Type of a body that is a frame.
const frameType = "application/octet-stream"

// errBadFrame is what splitFrame returns for a body that is not a frame.
var errBadFrame = errors.New("dist: malformed frame")

// appendFrame appends the frame of meta (marshalled as JSON) and blob to dst.
// With a nil blob it appends the meta prefix alone, for a writer that puts
// the blob after it without a copy.
func appendFrame(dst []byte, meta interface{}, blob []byte) ([]byte, error) {
	m, err := json.Marshal(meta)
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m)))
	dst = append(dst, m...)
	return append(dst, blob...), nil
}

// splitFrame parses a frame: it unmarshals the meta JSON into meta and
// returns the blob, which aliases body. A body cut short inside the blob
// still splits — the blob's own decoder is what notices.
func splitFrame(body []byte, meta interface{}) (blob []byte, err error) {
	if len(body) < frameHeaderLen {
		return nil, errBadFrame
	}
	n := uint64(binary.LittleEndian.Uint32(body))
	if n > uint64(len(body)-frameHeaderLen) {
		return nil, errBadFrame
	}
	if err := json.Unmarshal(body[frameHeaderLen:frameHeaderLen+n], meta); err != nil {
		return nil, err
	}
	return body[frameHeaderLen+n:], nil
}

// readBody reads r to its end into dst[:0] and returns the filled slice.
// sizeHint (a Content-Length, or negative when unknown) sizes dst up front,
// so a recycled buffer is never regrown; it is the peer's claim, so it is
// honoured only up to limit. Bounding the read itself is the caller's job
// — wrap r.
func readBody(dst []byte, r io.Reader, sizeHint, limit int64) ([]byte, error) {
	if sizeHint > limit {
		sizeHint = limit
	}
	// One byte spare, so the read that reports EOF needs no growth.
	if need := int(sizeHint) + 1; cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// RegisterRequest announces a client and its device capability; the
// capability feeds FLOAT's capacity-aware state encoding.
type RegisterRequest struct {
	Name     string  `json:"name"`
	GFLOPS   float64 `json:"gflops"`
	MemoryMB float64 `json:"memory_mb"`
}

// TrainSpec is the training configuration the server pushes to clients.
type TrainSpec struct {
	Arch      string  `json:"arch"`
	InDim     int     `json:"in_dim"`
	Classes   int     `json:"classes"`
	Epochs    int     `json:"epochs"`
	BatchSize int     `json:"batch_size"`
	LR        float64 `json:"lr"`
	// QuantBits is the wire quantization of the update codec (16 default).
	QuantBits int `json:"quant_bits"`
}

// RegisterResponse assigns the client its ID and configuration.
type RegisterResponse struct {
	ClientID int       `json:"client_id"`
	Spec     TrainSpec `json:"spec"`
}

// ResourceReport is the client's self-reported availability snapshot —
// the "system-level resource availability information" the paper notes is
// all FLOAT needs from clients (data never leaves the device).
type ResourceReport struct {
	CPUFrac       float64 `json:"cpu_frac"`
	MemFrac       float64 `json:"mem_frac"`
	NetFrac       float64 `json:"net_frac"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	Battery       float64 `json:"battery"`
	// DeadlineDiff is the human-feedback signal: fractional overrun of the
	// previous round's deadline (0 when met).
	DeadlineDiff float64 `json:"deadline_diff"`
}

// sanitized clamps a self-report into physically meaningful ranges. The
// server applies this at decode time: these fields drive every cost
// estimate the Controller makes, so one malformed report (non-finite,
// negative, or absurdly large) must not poison technique selection for
// the whole federation. Non-finite values degrade to the pessimistic end
// of each range rather than the optimistic one.
func (r ResourceReport) sanitized() ResourceReport {
	return ResourceReport{
		CPUFrac:       clampFrac(r.CPUFrac),
		MemFrac:       clampFrac(r.MemFrac),
		NetFrac:       clampFrac(r.NetFrac),
		BandwidthMbps: clampRange(r.BandwidthMbps, 0, 1e5),
		Battery:       clampFrac(r.Battery),
		DeadlineDiff:  clampRange(r.DeadlineDiff, 0, 10),
	}
}

// clampFrac maps a reported fraction into [0,1]; non-finite reports to 0.
func clampFrac(x float64) float64 { return clampRange(x, 0, 1) }

func clampRange(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// toResources converts a report into the simulator's resource type so the
// same Controller implementations work unmodified.
func (r ResourceReport) toResources() device.Resources {
	return device.Resources{
		Available:     true,
		CPUFrac:       r.CPUFrac,
		MemFrac:       r.MemFrac,
		NetFrac:       r.NetFrac,
		BandwidthMbps: r.BandwidthMbps,
		Battery:       r.Battery,
	}
}

// TaskRequest asks for this round's work.
type TaskRequest struct {
	ClientID  int            `json:"client_id"`
	Resources ResourceReport `json:"resources"`
}

// TaskResponse carries the global model and the technique FLOAT assigned.
type TaskResponse struct {
	Round     int    `json:"round"`
	Technique string `json:"technique"`
	// Model is the serialized global parameters (nn binary format): the
	// blob of the response's frame, not part of its meta JSON.
	Model []byte `json:"-"`
	// DeadlineSeconds is advisory for real deployments; the in-process
	// tests ignore it.
	DeadlineSeconds float64 `json:"deadline_seconds"`
	// LeaseSeconds is how long the server will hold this client's slot
	// before reclaiming it: an upload after that may be rejected with 409.
	LeaseSeconds float64 `json:"lease_seconds"`
}

// UpdateRequest is the meta of a /v1/update frame, whose blob is the
// trained, technique-transformed, codec-compressed model delta.
type UpdateRequest struct {
	ClientID  int     `json:"client_id"`
	Round     int     `json:"round"`
	Technique string  `json:"technique"`
	Samples   int     `json:"samples"`
	TrainSecs float64 `json:"train_secs"`
	// AccImprove is the client's local-accuracy improvement (reward signal).
	AccImprove float64 `json:"acc_improve"`
}

// StatusResponse summarizes server state, including the fault-tolerance
// counters (lease and round-timer activity, per-DropReason totals).
type StatusResponse struct {
	Round       int     `json:"round"`
	Registered  int     `json:"registered"`
	HoldoutAcc  float64 `json:"holdout_acc"`
	UpdatesSeen int     `json:"updates_seen"`
	// Outstanding is how many tasks are currently handed out for this
	// round; BufferedUpdates how many await aggregation.
	Outstanding     int `json:"outstanding"`
	BufferedUpdates int `json:"buffered_updates"`
	// ActiveLeases counts live lease timers; LeaseExpiries how many tasks
	// died silently and were reclaimed; PartialAggregations how many
	// rounds the round timer advanced below AggregateK.
	ActiveLeases        int `json:"active_leases"`
	LeaseExpiries       int `json:"lease_expiries"`
	PartialAggregations int `json:"partial_aggregations"`
	// Drops tallies dropouts by device.DropReason string.
	Drops map[string]int `json:"drops,omitempty"`
	// Draining reports drain mode (POST /v1/drain): no new tasks are
	// handed out, so Outstanding only falls.
	Draining bool `json:"draining,omitempty"`
}

// DrainRequest toggles drain mode; an empty body starts draining.
type DrainRequest struct {
	Off bool `json:"off,omitempty"`
}

// DrainResponse reports drain state and the work still in flight; poll
// /v1/status until Outstanding reaches zero, then GET /v1/snapshot.
type DrainResponse struct {
	Draining        bool `json:"draining"`
	Outstanding     int  `json:"outstanding"`
	BufferedUpdates int  `json:"buffered_updates"`
}
