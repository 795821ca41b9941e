package costmodel_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim/costmodel"
	"repro/internal/sim/diskstore"
)

// FuzzCostEstimate is the satellite robustness fuzz: arbitrary knob
// sets and metric histories — including NaN, ±Inf, negative and
// absurdly large values — must never produce a NaN, Inf or negative
// estimate, confidence must stay in [0,1], and the resulting model
// state must equal the json.Marshal reference encoding and round-trip
// bit-for-bit through Encode→Decode→Encode and through the disk store's
// cost-model persistence.
func FuzzCostEstimate(f *testing.F) {
	f.Add("j1", "sedov", 4096.0, 0.5, 6000.0, 16.0, 0.3, 0.1, 8192.0, 32.0)
	f.Add("j2", "kh", 0.0, -1.0, math.NaN(), math.Inf(1), 1e300, -0.0, math.Inf(-1), math.NaN())
	f.Add("", "", -5.0, 1e-308, 2.0, -3.0, 0.0, 7.5, 100.0, 1.0)
	f.Add("dup", "sedov", 1e18, 1e18, 1e18, 1e18, 1e18, 1e18, 1e18, 1e18)

	f.Fuzz(func(t *testing.T, id, problem string,
		work, seconds, cells, knob, opHydro, opOther, qWork, qKnob float64) {
		m := costmodel.New()
		// Three observations from the fuzzed numbers: one raw, one with a
		// per-op breakdown, one duplicate JobID to exercise replacement.
		m.Observe(costmodel.Sample{
			JobID: id, Problem: problem, Work: work, Seconds: seconds, Cells: cells,
			Features: map[string]float64{"rootn": knob, "knob:x": qKnob},
		})
		m.Observe(costmodel.Sample{
			JobID: id + "-ops", Problem: problem, Work: qWork, Seconds: opHydro + opOther,
			Features:  map[string]float64{"rootn": knob * 2},
			OpSeconds: map[string]float64{"hydro": opHydro, "other": opOther},
		})
		m.Observe(costmodel.Sample{
			JobID: id, Problem: problem, Work: work * 2, Seconds: seconds * 3,
		})

		for _, q := range []costmodel.Query{
			{Problem: problem, Work: qWork, Features: map[string]float64{"rootn": knob, "knob:x": qKnob}},
			{Problem: problem, Work: math.NaN(), Features: map[string]float64{"rootn": math.Inf(1)}},
			{Problem: problem, Work: math.Inf(-1)},
			{Problem: "never-observed", Work: qWork},
		} {
			est := m.Estimate(q)
			for name, v := range map[string]float64{
				"seconds": est.Seconds, "cells": est.Cells, "confidence": est.Confidence,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("estimate %s = %g for query %+v", name, v, q)
				}
			}
			if est.Confidence > 1 {
				t.Fatalf("confidence %g > 1", est.Confidence)
			}
			if est.Samples == 0 && est.Predictor != costmodel.PredictorNone {
				t.Fatalf("zero-sample estimate claims predictor %q", est.Predictor)
			}
		}

		// Persistence round-trip: bit-for-bit through Encode/Decode...
		state := m.Encode()
		if want := costmodel.ReferenceEncode(m); !bytes.Equal(state, want) {
			t.Fatalf("Encode differs from the json.Marshal reference:\n%q\nvs\n%q", state, want)
		}
		m2 := costmodel.New()
		if err := m2.Decode(state); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if again := m2.Encode(); !bytes.Equal(state, again) {
			t.Fatalf("Encode→Decode→Encode drifted:\n%q\nvs\n%q", state, again)
		}
		// ...and byte-for-byte through the disk store.
		st, err := diskstore.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.SaveCostModel(state); err != nil {
			t.Fatal(err)
		}
		got, err := st.LoadCostModel()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, state) {
			t.Fatalf("disk round-trip drifted: %q vs %q", got, state)
		}
	})
}
