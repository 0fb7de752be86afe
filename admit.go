package dynring

import "dynring/internal/wire"

// AdmitRows materializes the rows of one admission and appends them to scs
// and fps: each row's Scenario and its Fingerprint, in row order. It is the
// ringsimd service's one admission path. The rows are
//
//   - spec's, when spec is non-nil: the rows ScenarioList expands it to;
//   - otherwise body's: one RunRequest (a row of POST /v1/run) when run is
//     set, else a SweepSpec (a POST /v1/sweeps body), read as
//     DecodeRunRequest and DecodeSweepSpec read them.
//
// Rows and errors are exactly what decoding, ScenarioList (for a
// RunRequest, ScenarioSpec.Scenario and Validate) and Fingerprint give,
// but each row is resolved once, for validation and fingerprint alike;
// body is decoded into storage pooled across calls, registry algorithm
// names and adversary kinds cost nothing, and nothing appended points into
// that storage or into body. Nil scs and fps are allocated at the exact
// row count. On error they keep their length.
func AdmitRows(scs []Scenario, fps []string, spec *SweepSpec, body []byte, run bool) ([]Scenario, []string, error) {
	if spec != nil {
		return spec.appendRows(scs, fps, true)
	}
	d := getScratch()
	defer putScratch(d)
	l := wire.NewLexer(body)
	if run {
		row := &d.row
		if readRunRequest(&l, row); !l.End() {
			var req RunRequest
			if err := decodeStrict(body, &req); err != nil {
				return scs, fps, err
			}
			row = &req.Scenario
		}
		sc, r, err := row.materialize()
		if err != nil {
			return scs, fps, err
		}
		return append(scs, sc), append(fps, sc.fingerprint(&r)), nil
	}
	sp := &d.spec
	if readSweepSpec(&l, sp); !l.End() {
		sp = new(SweepSpec)
		if err := decodeStrict(body, sp); err != nil {
			return scs, fps, err
		}
	}
	return sp.appendRows(scs, fps, true)
}

// appendRows appends the rows ScenarioList expands sp to, and with
// fingerprint each row's fingerprint, as Sweep.expand does for a grid.
func (sp *SweepSpec) appendRows(scs []Scenario, fps []string, fingerprint bool) ([]Scenario, []string, error) {
	if len(sp.Scenarios) == 0 {
		sw, err := sp.Sweep()
		if err != nil {
			return scs, fps, err
		}
		return sw.expand(scs, fps, fingerprint)
	}
	if err := sp.checkExplicit(); err != nil {
		return scs, fps, err
	}
	n, m := len(scs), len(fps)
	scs = grow(scs, len(sp.Scenarios))
	if fingerprint {
		fps = grow(fps, len(sp.Scenarios))
	}
	for i := range sp.Scenarios {
		sc, r, err := sp.Scenarios[i].materialize()
		if err != nil {
			return scs[:n], fps[:m], rowError(i, err)
		}
		scs = append(scs, sc)
		if fingerprint {
			// A scenario built from a spec has no NewProtocols factory,
			// and its adversary, if any, is labelled: it is
			// fingerprintable.
			fps = append(fps, sc.fingerprint(&r))
		}
	}
	return scs, fps, nil
}

// materialize builds the row's Scenario and resolves it without building:
// the one resolve that both validates the row and feeds its fingerprint.
func (ss *ScenarioSpec) materialize() (Scenario, resolved, error) {
	sc, err := ss.Scenario()
	if err != nil {
		return Scenario{}, resolved{}, err
	}
	r, err := sc.resolve(false)
	if err != nil {
		return Scenario{}, resolved{}, err
	}
	return sc, r, nil
}

// grow returns s with room for n more elements, reallocating it at exactly
// that capacity when it has not.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}
