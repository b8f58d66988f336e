package dataio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// JSON interop. The wire shapes are stable and self-describing so other
// tooling (notebooks, dashboards) can consume mining results without
// parsing the compact text formats.

// jsonInterval is the wire form of one event interval.
type jsonInterval struct {
	Symbol string        `json:"symbol"`
	Start  interval.Time `json:"start"`
	End    interval.Time `json:"end"`
}

// jsonSequence is the wire form of one sequence.
type jsonSequence struct {
	ID        string         `json:"id"`
	Intervals []jsonInterval `json:"intervals"`
}

// jsonDatabase is the wire form of a database.
type jsonDatabase struct {
	Sequences []jsonSequence `json:"sequences"`
}

// WriteJSON writes the database as JSON.
func WriteJSON(w io.Writer, db *interval.Database) error {
	out := jsonDatabase{Sequences: make([]jsonSequence, len(db.Sequences))}
	for i := range db.Sequences {
		seq := &db.Sequences[i]
		js := jsonSequence{ID: seq.ID, Intervals: make([]jsonInterval, len(seq.Intervals))}
		for j, iv := range seq.Intervals {
			js.Intervals[j] = jsonInterval{Symbol: iv.Symbol, Start: iv.Start, End: iv.End}
		}
		out.Sequences[i] = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("dataio: json write: %w", err)
	}
	return nil
}

// DecodeJSON decodes exactly one JSON value from r into v. It refuses
// unknown object fields and anything but whitespace after the value, so
// a second value is an error rather than silently dropped. An input
// holding no value at all returns io.EOF, and an error reading r is
// returned as it is.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case errors.Is(err, io.EOF):
		return nil
	case err != nil && !errors.As(err, &syntax):
		return err
	}
	return errors.New("unexpected data after the JSON value")
}

// ReadJSON parses the output of WriteJSON, validating every interval.
func ReadJSON(r io.Reader) (*interval.Database, error) {
	var in jsonDatabase
	if err := DecodeJSON(r, &in); err != nil {
		return nil, fmt.Errorf("dataio: json: %w", err)
	}
	db := &interval.Database{Sequences: make([]interval.Sequence, len(in.Sequences))}
	for i, js := range in.Sequences {
		seq := interval.Sequence{ID: js.ID, Intervals: make([]interval.Interval, len(js.Intervals))}
		for j, jiv := range js.Intervals {
			iv := interval.Interval{Symbol: jiv.Symbol, Start: jiv.Start, End: jiv.End}
			if err := iv.Valid(); err != nil {
				return nil, fmt.Errorf("dataio: json sequence %q interval %d: %w", js.ID, j, err)
			}
			seq.Intervals[j] = iv
		}
		seq.Normalize()
		db.Sequences[i] = seq
	}
	return db, nil
}

// jsonTemporalResult is the wire form of one temporal result. The
// pattern carries both its compact text form and the recovered Allen
// relations for direct display.
type jsonTemporalResult struct {
	Support   int    `json:"support"`
	Pattern   string `json:"pattern"`
	Relations string `json:"relations,omitempty"`
}

// WriteTemporalResultsJSON writes temporal results as a JSON array.
func WriteTemporalResultsJSON(w io.Writer, rs []pattern.TemporalResult) error {
	out := make([]jsonTemporalResult, len(rs))
	for i, r := range rs {
		out[i] = jsonTemporalResult{
			Support:   r.Support,
			Pattern:   r.Pattern.String(),
			Relations: r.Pattern.RelationSummary(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("dataio: json results write: %w", err)
	}
	return nil
}

// ReadTemporalResultsJSON parses the output of
// WriteTemporalResultsJSON, re-validating every pattern.
func ReadTemporalResultsJSON(r io.Reader) ([]pattern.TemporalResult, error) {
	var in []jsonTemporalResult
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("dataio: json results: %w", err)
	}
	out := make([]pattern.TemporalResult, len(in))
	for i, jr := range in {
		p, err := pattern.ParseTemporal(jr.Pattern)
		if err != nil {
			return nil, fmt.Errorf("dataio: json result %d: %w", i, err)
		}
		out[i] = pattern.TemporalResult{Pattern: p, Support: jr.Support}
	}
	return out, nil
}

// jsonCoincResult is the wire form of one coincidence result.
type jsonCoincResult struct {
	Support int    `json:"support"`
	Pattern string `json:"pattern"`
}

// WriteCoincResultsJSON writes coincidence results as a JSON array.
func WriteCoincResultsJSON(w io.Writer, rs []pattern.CoincResult) error {
	out := make([]jsonCoincResult, len(rs))
	for i, r := range rs {
		out[i] = jsonCoincResult{Support: r.Support, Pattern: r.Pattern.String()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("dataio: json results write: %w", err)
	}
	return nil
}

// ReadCoincResultsJSON parses the output of WriteCoincResultsJSON.
func ReadCoincResultsJSON(r io.Reader) ([]pattern.CoincResult, error) {
	var in []jsonCoincResult
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("dataio: json results: %w", err)
	}
	out := make([]pattern.CoincResult, len(in))
	for i, jr := range in {
		p, err := pattern.ParseCoinc(jr.Pattern)
		if err != nil {
			return nil, fmt.Errorf("dataio: json result %d: %w", i, err)
		}
		out[i] = pattern.CoincResult{Pattern: p, Support: jr.Support}
	}
	return out, nil
}
