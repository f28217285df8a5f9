package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/mcu"
)

// TestCheckpointWriteErrorSurfaces pins that a failing checkpoint append
// fails the run with a wrapped error instead of silently losing trials,
// for a proxy-only run and for a two-stage one.
func TestCheckpointWriteErrorSurfaces(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full is not available")
	}
	for _, finalists := range []int{0, 1} {
		cfg := Config{
			Task: "kws", Device: mcu.F446RE, Trials: 4, Seed: 3,
			Finalists: finalists, TrainSteps: 2, CheckpointPath: "/dev/full",
		}
		res, err := Run(context.Background(), cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "search: checkpoint write") || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("finalists %d: Run returned (%v, %v), want a wrapped checkpoint write ENOSPC", finalists, res, err)
		}
	}
}

// logLine is one well-formed checkpoint line: the further line the fuzz
// target tears and corrupts.
func logLine(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(&TrialRecord{
		Trial: 7, Source: "mutate", Task: "kws", Device: "F446RE", Seed: 42,
		Spec: &arch.Spec{Name: "trial-007", Task: "kws", InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
			Blocks: []arch.Block{{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2}, {Kind: arch.GlobalPool}, {Kind: arch.Dense, OutC: 12}}},
		Metrics:  Metrics{AccuracyProxy: 88.5, TrainedAccuracy: 61.25, LatencyS: 0.012, ArenaBytes: 4096, Ops: 123456},
		Feasible: true, Stage: StageFinalist, TrainSteps: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeLog renders records in the checkpoint's own format.
func encodeLog(t *testing.T, recs []TrialRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatalf("accepted record %d does not re-marshal: %v", i, err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}

// FuzzReadTrialLog: the checkpoint reader never panics; whatever it
// accepts re-marshals and re-reads to the same bytes; a valid log plus a
// strict prefix of a further line reads as the valid log alone; and a
// torn line followed by a complete one is an error.
func FuzzReadTrialLog(f *testing.F) {
	f.Add([]byte(`{"trial":0,"source":"random","task":"kws","metrics":{"accuracy_proxy":80}}`+"\n"+`{"trial":1,"stage":"finalist","train_steps":5}`+"\n"), uint16(9))
	f.Add([]byte(`{"trial":0}`+"\n"+`{"trial":1,"sour`), uint16(0))
	f.Add([]byte(`{"trial":0}`+"\n"+"garbage\n"+`{"trial":2}`+"\n"), uint16(1))
	f.Add([]byte("null\n\n"+`{"spec":{"Name":"x","Blocks":[{"Kind":"IBN","Expand":4}]}}`), uint16(40))
	f.Add([]byte{}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		recs, err := ReadTrialLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		valid := encodeLog(t, recs)
		again, err := ReadTrialLog(bytes.NewReader(valid))
		if err != nil {
			t.Fatalf("re-marshalled log rejected: %v\n%s", err, valid)
		}
		if got := encodeLog(t, again); !bytes.Equal(got, valid) {
			t.Fatalf("records changed on a round trip:\n%s\n%s", valid, got)
		}

		line := logLine(t)
		torn := line[:int(cut)%len(line)]
		withTail := append(append([]byte(nil), valid...), torn...)
		got, err := ReadTrialLog(bytes.NewReader(withTail))
		if err != nil {
			t.Fatalf("torn tail %q rejected: %v", torn, err)
		}
		if !bytes.Equal(encodeLog(t, got), valid) {
			t.Fatalf("torn tail %q not dropped", torn)
		}
		if len(torn) > 0 {
			corrupt := append(append(withTail, '\n'), line...)
			if _, err := ReadTrialLog(bytes.NewReader(corrupt)); err == nil {
				t.Fatalf("torn line %q followed by a valid one was accepted", torn)
			}
		}
	})
}
