package search

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"micronets/internal/arch"
)

// TrialRecord is one evaluated candidate, as checkpointed to the JSONL
// trial log. The log is the unit of resumability: every completed trial
// is one line, a restarted run replays the lines to rebuild the frontier
// and skips the recorded trial indices, and the frontier export reads
// specs straight out of it.
type TrialRecord struct {
	Trial  int    `json:"trial"`
	Source string `json:"source"`
	// Task, Device and Seed record what the trial was generated and
	// measured against; a resume only reuses records matching its own
	// config (metrics are device-specific, candidate generation is
	// seed-specific), and re-derives feasibility from the metrics against
	// its own — possibly different — budgets.
	Task       string     `json:"task"`
	Device     string     `json:"device"`
	Seed       int64      `json:"seed"`
	Spec       *arch.Spec `json:"spec"`
	Metrics    Metrics    `json:"metrics"`
	Feasible   bool       `json:"feasible"`
	Violations []string   `json:"violations,omitempty"`
	// Stage is "" for proxy evaluations (the schema before two-stage
	// search, so proxy-only logs resume unchanged) and StageFinalist for
	// re-appended records carrying a stage-two trained accuracy in
	// Metrics.TrainedAccuracy. A finalist line always follows its trial's
	// proxy line in a well-formed log; loaders that predate the field
	// simply skip it as a duplicate trial index.
	Stage string `json:"stage,omitempty"`
	// TrainSteps is the stage-two training budget behind
	// Metrics.TrainedAccuracy (finalist records only): a resume reuses a
	// trained result only when produced under its own -train-steps.
	TrainSteps int `json:"train_steps,omitempty"`
	// Err records candidates that failed to lower/plan/train (kept in the
	// log so a resume does not retry them forever).
	Err string `json:"err,omitempty"`
}

// StageFinalist marks a JSONL record re-appended by the accuracy-in-the-
// loop second stage.
const StageFinalist = "finalist"

// trialLog serializes JSONL appends from concurrent workers and flushes
// per line, so a killed run loses at most the line being written. A nil
// *trialLog (checkpointing disabled) drops every append.
type trialLog struct {
	mu  sync.Mutex
	w   *bufio.Writer
	f   *os.File
	err error // first failed append; later appends are dropped. guarded by trialLog.mu
}

// openTrialLog opens the checkpoint for appending; an empty path disables
// checkpointing and returns a nil log.
func openTrialLog(path string) (*trialLog, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// A crash mid-append can leave a torn final line. ReadTrialLog
	// tolerates it, but appending after the fragment would weld the next
	// record onto it, turning a recoverable tail into permanent mid-file
	// corruption — truncate back to the last complete line first.
	if err := truncateTornTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &trialLog{w: bufio.NewWriter(f), f: f}, nil
}

// truncateTornTail trims the file back to its last newline (or empty) and
// leaves the offset at the new end.
func truncateTornTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		return nil
	}
	buf := make([]byte, 1)
	end := size
	for end > 0 {
		if _, err := f.ReadAt(buf, end-1); err != nil {
			return err
		}
		if buf[0] == '\n' {
			break
		}
		end--
	}
	if end != size {
		if err := f.Truncate(end); err != nil {
			return err
		}
	}
	_, err = f.Seek(end, io.SeekStart)
	return err
}

// append writes rec as one line. The first failure sticks: later appends
// are dropped and failed reports it.
func (l *trialLog) append(rec *TrialRecord) {
	if l == nil {
		return
	}
	b, err := json.Marshal(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err == nil {
		_, err = l.w.Write(append(b, '\n'))
	}
	if err == nil {
		err = l.w.Flush()
	}
	l.err = err
}

// failed returns the first append failure, if any.
func (l *trialLog) failed() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return fmt.Errorf("search: checkpoint write: %w", l.err)
	}
	return nil
}

func (l *trialLog) close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ReadTrialLog parses a JSONL trial log. A torn final line (crash during
// append) is tolerated and dropped; corruption anywhere else is an error.
func ReadTrialLog(r io.Reader) ([]TrialRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var out []TrialRecord
	var pendingErr error
	for lineNo := 1; sc.Scan(); lineNo++ {
		if pendingErr != nil {
			return nil, pendingErr
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec TrialRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Only acceptable as the torn last line; remember and fail if
			// more lines follow.
			pendingErr = fmt.Errorf("search: corrupt trial log line %d: %w", lineNo, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LoadTrialLog reads a trial log from disk. A missing file is an empty log
// (fresh start), and so is one that is not a regular file: a device given
// as the checkpoint holds nothing to resume (/dev/full would read as an
// endless line of NUL bytes).
func LoadTrialLog(path string) ([]TrialRecord, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if info, err := f.Stat(); err != nil || !info.Mode().IsRegular() {
		return nil, err
	}
	recs, err := ReadTrialLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
