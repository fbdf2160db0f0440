package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/textio"
	"repro/perfbench/tablecheck"
)

// requestTimeout bounds one HTTP request; a request past it counts as
// failed.
const requestTimeout = 30 * time.Second

// post sends body to url and reads the whole response. lat runs from the
// send to the last body byte read.
func post(ctx context.Context, c *http.Client, url string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	r, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, resp, time.Since(t0), err
}

// postSchedule schedules one problem document over POST /v1/schedule and
// decodes the solution strictly.
func postSchedule(ctx context.Context, c *http.Client, base string, body []byte) (*textio.SolutionDoc, error) {
	status, resp, _, err := post(ctx, c, base+"/v1/schedule", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
	}
	return decodeSolution(resp)
}

// decodeSolution decodes a v1 solution document, rejecting unknown fields
// and trailing data.
func decodeSolution(b []byte) (*textio.SolutionDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sol textio.SolutionDoc
	if err := dec.Decode(&sol); err != nil {
		return nil, fmt.Errorf("decoding solution: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("decoding solution: trailing data after the document")
	}
	if sol.Version != textio.ProblemVersion {
		return nil, fmt.Errorf("decoding solution: version %q", sol.Version)
	}
	return &sol, nil
}

// fingerprint hashes the deterministic fields of a solution: delays, paths,
// the table and its text, and the merge counts. The wall-clock stats.*Ns and
// the service-wide cache block vary run to run and are left out.
func fingerprint(s *textio.SolutionDoc) [32]byte {
	h := sha256.New()
	var buf [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(v string) {
		num(int64(len(v)))
		io.WriteString(h, v)
	}
	str(s.Name)
	num(s.DeltaM)
	num(s.DeltaMax)
	num(int64(math.Float64bits(s.IncreasePercent)))
	if s.Deterministic {
		num(1)
	} else {
		num(0)
	}
	num(int64(len(s.Violations)))
	for _, v := range s.Violations {
		str(v)
	}
	num(int64(len(s.Paths)))
	for _, p := range s.Paths {
		str(p.Label)
		num(p.OptimalDelay)
		num(p.TableDelay)
	}
	if s.Table != nil {
		str(s.Table.Graph)
		num(int64(len(s.Table.Columns)))
		for _, c := range s.Table.Columns {
			str(c)
		}
		num(int64(len(s.Table.Entries)))
		for _, e := range s.Table.Entries {
			str(e.Row)
			if e.Broadcast {
				num(1)
			} else {
				num(0)
			}
			str(e.When)
			num(e.Start)
		}
	} else {
		num(-1)
	}
	str(s.TableText)
	st := s.Stats
	for _, v := range []int{st.Paths, st.BackSteps, st.Conflicts, st.ConflictsResolved, st.Locks, st.Columns, st.Entries} {
		num(int64(v))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// checkSolution holds a solution to its own verdict. A solution reported
// deterministic and violation-free must pass the independent checker;
// anything else is an incorrect output. A solution the program itself
// reports as defective is a failed operation (defective is true), not an
// incorrect one: the program told the truth about it.
func checkSolution(problem []byte, sol *textio.SolutionDoc) (defective bool, err error) {
	doc, err := textio.ReadProblem(bytes.NewReader(problem))
	if err != nil {
		return false, err
	}
	fs := tablecheck.Check(doc, sol)
	if !sol.Deterministic || len(sol.Violations) != 0 {
		note("defect: %s reports deterministic=%v with %d violation(s); independent checker: %v",
			sol.Name, sol.Deterministic, len(sol.Violations), tablecheck.Error(fs))
		return true, nil
	}
	if err := tablecheck.Error(fs); err != nil {
		return false, incorrect("solution %s is reported deterministic, but %v", sol.Name, err)
	}
	return false, nil
}

var notes struct {
	mu sync.Mutex
	w  io.Writer
}

// note prints a diagnostic line ahead of the result.
func note(format string, args ...any) {
	notes.mu.Lock()
	defer notes.mu.Unlock()
	if notes.w != nil {
		fmt.Fprintf(notes.w, "# "+format+"\n", args...)
	}
}
