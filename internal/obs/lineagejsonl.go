package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// Lineage file format: one canonical JSON record line per sampled decision
// (sorted, stable field order — the same bytes Digest hashes), terminated by
// a single summary line carrying the schema version, record count, digest,
// and the run's funnels — each stage's counts are the funnel of the same
// name. The digest covers the record lines only, so a reader can re-hash
// what it read and detect truncation or tampering.

// LineageSchemaVersion is the current lineage file schema. Version 2
// replaced the summary's per-stage lineage counts with the run's funnels.
const LineageSchemaVersion = 2

// LineageSummary is the trailing line of a lineage file.
type LineageSummary struct {
	Type    string           `json:"type"` // always "summary"
	Schema  int              `json:"schema"`
	Records int              `json:"records"`
	Digest  string           `json:"digest"`
	Funnels []FunnelSnapshot `json:"funnels,omitempty"`
}

// WriteLineageFile spills the recorder's sampled decisions to path as JSONL,
// with the run's funnel snapshots on the summary line.
func WriteLineageFile(path string, r *LineageRecorder, funnels []FunnelSnapshot) error {
	if r == nil {
		return fmt.Errorf("obs: write lineage %s: no active recorder", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create lineage file: %w", err)
	}
	w := bufio.NewWriter(f)
	lines := r.recordLines()
	for _, line := range lines {
		if _, err := w.Write(line); err != nil {
			f.Close()
			return fmt.Errorf("obs: write lineage record: %w", err)
		}
	}
	sum := LineageSummary{
		Type:    "summary",
		Schema:  LineageSchemaVersion,
		Records: len(lines),
		Digest:  r.Digest(),
		Funnels: funnels,
	}
	b, err := json.Marshal(sum)
	if err != nil {
		f.Close()
		return fmt.Errorf("obs: marshal lineage summary: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("obs: write lineage summary: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("obs: flush lineage file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close lineage file: %w", err)
	}
	return nil
}

// LineageFile is a loaded lineage capture.
type LineageFile struct {
	Records []LineageDecision
	Summary LineageSummary
}

// ReadLineageFile loads a file written by WriteLineageFile, verifying the
// record count and digest against the summary line.
func ReadLineageFile(path string) (*LineageFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read lineage file: %w", err)
	}
	defer f.Close()

	var lf LineageFile
	sawSummary := false
	h := sha256.New()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if sawSummary {
			return nil, fmt.Errorf("obs: lineage %s:%d: data after summary line", path, lineNo)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("obs: lineage %s:%d: %w", path, lineNo, err)
		}
		if probe.Type == "summary" {
			if err := json.Unmarshal(line, &lf.Summary); err != nil {
				return nil, fmt.Errorf("obs: lineage %s:%d: summary: %w", path, lineNo, err)
			}
			sawSummary = true
			continue
		}
		var dec LineageDecision
		if err := json.Unmarshal(line, &dec); err != nil {
			return nil, fmt.Errorf("obs: lineage %s:%d: record: %w", path, lineNo, err)
		}
		lf.Records = append(lf.Records, dec)
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan lineage %s: %w", path, err)
	}
	if !sawSummary {
		return nil, fmt.Errorf("obs: lineage %s: missing summary line (truncated file?)", path)
	}
	if lf.Summary.Schema != LineageSchemaVersion {
		return nil, fmt.Errorf("obs: lineage %s: schema %d, want %d", path, lf.Summary.Schema, LineageSchemaVersion)
	}
	if len(lf.Records) != lf.Summary.Records {
		return nil, fmt.Errorf("obs: lineage %s: %d records, summary says %d", path, len(lf.Records), lf.Summary.Records)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != lf.Summary.Digest {
		return nil, fmt.Errorf("obs: lineage %s: record digest %s does not match summary %s", path, got, lf.Summary.Digest)
	}
	return &lf, nil
}
