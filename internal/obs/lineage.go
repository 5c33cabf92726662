package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Lineage records per-decision provenance. Funnels say how many items each
// classification stage kept or dropped; lineage says which evidence put a
// specific subject (an address, an ISP, a trace hop) into a specific outcome,
// so any cell of Table 1/2 can be explained end to end. Recording is
// default-off: sites consult the process-wide recorder via ActiveLineage,
// every recorder method is nil-safe, and a disabled run costs one atomic
// load + nil check per call site.
//
// The recorder holds records only. A stage's counts are its funnel, fed the
// same way whether or not lineage is on, and a site names its records'
// stage after that funnel (Funnel.Name), so the two cannot drift apart.
//
// Records are sampled: per (stage, group) the recorder keeps the
// DefaultLineageCap records whose admission key — a pure hash of the
// record's identity, never a sequential RNG draw — is smallest. A bounded
// min-set over a multiset is arrival-order independent, so the retained
// sample (and hence the digest) is byte-identical at any -workers.
// Sites must uphold one invariant for this to hold: a record's evidence is a
// pure function of its identity (stage, group, subject, outcome, reason) and
// the run configuration, so identically keyed duplicates are byte-identical
// and deduplication is safe.
//
// Group keys choose the sampling granularity. Table 1 classification groups
// by (hypergiant, ISP, pass) so every populated cell retains at least one
// record; per-ISP stages group by ISP. The empty group is legal and groups
// by reason code alone.
type LineageRecorder struct {
	mu     sync.RWMutex
	stages map[string]*lineageStage
}

// LineageKV is one evidence key/value pair on a decision record.
type LineageKV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// LineageDecision is one sampled classification decision: the evidence chain
// behind one subject's outcome at one stage.
type LineageDecision struct {
	Stage      string      `json:"stage"`
	Group      string      `json:"group,omitempty"`
	Subject    string      `json:"subject"`
	Outcome    string      `json:"outcome"`
	ReasonCode string      `json:"reason_code,omitempty"`
	Evidence   []LineageKV `json:"evidence,omitempty"`
}

// Outcome values for LineageDecision. Kept decisions carry the reason code
// "" or a positive classification tag; dropped decisions carry the funnel
// drop reason.
const (
	LineageKept    = "kept"
	LineageDropped = "dropped"
)

// DefaultLineageCap is the per-(stage, group) sampled-record cap.
const DefaultLineageCap = 2

type lineageStage struct {
	mu     sync.Mutex
	groups map[string]*lineageGroup
}

type lineageGroup struct {
	recs []lineageAdmitted
}

type lineageAdmitted struct {
	key uint64
	id  string
	dec LineageDecision
}

// NewLineageRecorder returns an empty recorder.
func NewLineageRecorder() *LineageRecorder {
	return &LineageRecorder{stages: make(map[string]*lineageStage)}
}

func (r *LineageRecorder) stage(name string) *lineageStage {
	r.mu.RLock()
	s := r.stages[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.stages[name]; s != nil {
		return s
	}
	s = &lineageStage{groups: make(map[string]*lineageGroup)}
	r.stages[name] = s
	return s
}

// lineageKey derives the hash admission key for a record identity. FNV-1a
// over the full identity: pure, order-free, no sequential state.
func lineageKey(stage, group, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stage))
	h.Write([]byte{0})
	h.Write([]byte(group))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return h.Sum64()
}

// admitBefore orders candidates by (key, id): the sample keeps the records
// that sort first. The id tiebreak keeps eviction deterministic even across
// 64-bit hash collisions.
func admitBefore(key uint64, id string, than lineageAdmitted) bool {
	if key != than.key {
		return key < than.key
	}
	return id < than.id
}

// Record offers one decision for sampling. The evidence builder runs only if
// the record is admitted, so call sites pay nothing for decisions the sample
// rejects. Safe on a nil receiver.
func (r *LineageRecorder) Record(stage, group, subject, outcome, reason string, build func() []LineageKV) {
	if r == nil {
		return
	}
	s := r.stage(stage)
	id := subject + "\x00" + outcome + "\x00" + reason
	key := lineageKey(stage, group, id)

	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[group]
	if g == nil {
		g = &lineageGroup{}
		s.groups[group] = g
	}
	for i := range g.recs {
		if g.recs[i].id == id {
			// Duplicate identity: by the purity invariant the evidence would
			// be byte-identical, so the already admitted record stands.
			return
		}
	}
	slot := -1
	if len(g.recs) < DefaultLineageCap {
		g.recs = append(g.recs, lineageAdmitted{})
		slot = len(g.recs) - 1
	} else {
		worst := 0
		for i := 1; i < len(g.recs); i++ {
			if admitBefore(g.recs[worst].key, g.recs[worst].id, g.recs[i]) {
				worst = i
			}
		}
		if !admitBefore(key, id, g.recs[worst]) {
			return
		}
		slot = worst
	}
	dec := LineageDecision{
		Stage:      stage,
		Group:      group,
		Subject:    subject,
		Outcome:    outcome,
		ReasonCode: reason,
	}
	if build != nil {
		dec.Evidence = build()
	}
	g.recs[slot] = lineageAdmitted{key: key, id: id, dec: dec}
}

// lineageLess is the canonical record order: records sort by
// (Stage, Group, Subject, Outcome, ReasonCode). Identity determines evidence
// (the purity invariant), so this fully orders the sample.
func lineageLess(a, b LineageDecision) bool {
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	if a.Group != b.Group {
		return a.Group < b.Group
	}
	if a.Subject != b.Subject {
		return a.Subject < b.Subject
	}
	if a.Outcome != b.Outcome {
		return a.Outcome < b.Outcome
	}
	return a.ReasonCode < b.ReasonCode
}

// Records returns every sampled decision in canonical order.
func (r *LineageRecorder) Records() []LineageDecision {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	stages := make([]*lineageStage, 0, len(r.stages))
	for _, s := range r.stages {
		stages = append(stages, s)
	}
	r.mu.RUnlock()

	var out []LineageDecision
	for _, s := range stages {
		s.mu.Lock()
		for _, g := range s.groups {
			for _, a := range g.recs {
				out = append(out, a.dec)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return lineageLess(out[i], out[j]) })
	return out
}

// recordLines renders the canonical JSONL record lines — the exact bytes
// WriteLineageFile emits and Digest hashes.
func (r *LineageRecorder) recordLines() [][]byte {
	recs := r.Records()
	lines := make([][]byte, len(recs))
	for i, d := range recs {
		b, err := json.Marshal(d)
		if err != nil {
			// Decisions are plain strings; marshal cannot fail. Keep the
			// line count stable regardless.
			b = []byte("{}")
		}
		lines[i] = append(b, '\n')
	}
	return lines
}

// Digest returns the canonical SHA-256 of the sampled records: the hash of
// the JSONL record lines exactly as WriteLineageFile emits them. Equal seeds
// and configs produce equal digests at any worker count; rehashing a written
// lineage file's record lines reproduces it. Returns "" on a nil recorder.
func (r *LineageRecorder) Digest() string {
	if r == nil {
		return ""
	}
	h := sha256.New()
	for _, line := range r.recordLines() {
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// activeLineage is the process-wide recorder classification sites consult.
// Default off (nil): every method on the nil recorder no-ops.
var activeLineage atomic.Pointer[LineageRecorder]

// SetLineage installs r as the process-wide active recorder. Pass nil to
// disable recording.
func SetLineage(r *LineageRecorder) { activeLineage.Store(r) }

// ActiveLineage returns the active recorder, or nil when lineage is off.
// Recorder methods are nil-safe, but sites gate on the nil check anyway so
// a lineage-off run builds no group key, subject string or evidence closure.
func ActiveLineage() *LineageRecorder { return activeLineage.Load() }

// LineageMarkdown renders the recorder's sampled records as the report's
// "Evidence appendix": up to maxPerStage evidence chains per stage. The
// stages' counts are their funnels, rendered by FunnelTable. The output is a
// pure function of the canonical record set, so — like every experiment
// section — it is byte-identical at any worker count.
func LineageMarkdown(r *LineageRecorder, maxPerStage int) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	perStage := 0
	last := ""
	for _, rec := range r.Records() {
		if rec.Stage != last {
			fmt.Fprintf(&b, "\n**%s**\n\n", rec.Stage)
			last, perStage = rec.Stage, 0
		}
		if perStage >= maxPerStage {
			continue
		}
		perStage++
		head := rec.Outcome
		if rec.ReasonCode != "" {
			head += "/" + rec.ReasonCode
		}
		fmt.Fprintf(&b, "- `%s` %s", rec.Subject, head)
		if rec.Group != "" {
			fmt.Fprintf(&b, " (%s)", rec.Group)
		}
		var kvs []string
		for _, kv := range rec.Evidence {
			kvs = append(kvs, kv.K+"="+kv.V)
		}
		if len(kvs) > 0 {
			fmt.Fprintf(&b, " — %s", strings.Join(kvs, ", "))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
