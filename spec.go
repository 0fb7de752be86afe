package dynring

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"dynring/internal/core"
	"dynring/internal/wire"
)

// This file defines the serializable counterparts of Scenario and Sweep.
// Scenario and Sweep carry function fields (adversary factories, protocol
// constructors) and therefore cannot cross a process boundary; the *Spec
// types describe the same grids as plain JSON-encodable data. They are the
// wire format of the ringsimd service (see Client and internal/service) and
// the input format of cmd/ringsim's -server mode.
//
// A spec names its adversary by kind and parameters, and the derived
// AdversarySpec.Label encodes every parameter — so two scenarios whose
// dynamics differ in any way also differ in AdversaryLabel, which is what
// keeps Scenario.Fingerprint sound as a cache key.

// AdversarySpec is the serializable description of a built-in adversary.
// Kind selects the strategy; the remaining fields parameterize it and are
// ignored by kinds that do not use them.
type AdversarySpec struct {
	// Kind is one of the paper's strategies — none, random, greedy,
	// frontier, pin, persistent, prevent — or a dynamics-model-zoo family:
	// tinterval, capped, recurrent.
	Kind string `json:"kind"`
	// P is the edge-removal probability for Kind "random".
	P float64 `json:"p,omitempty"`
	// Edge is the removed edge for Kind "persistent".
	Edge int `json:"edge,omitempty"`
	// Pin is the targeted agent for Kind "pin".
	Pin int `json:"pin,omitempty"`
	// T is the phase length for Kind "tinterval" (T-interval connectivity:
	// the missing edge changes only every T rounds); it must be ≥ 1.
	T int `json:"t,omitempty"`
	// R is the per-round removal cap for Kind "capped" (at most R missing
	// edges per round); it must be ≥ 1.
	R int `json:"r,omitempty"`
	// W is the recurrence window for Kind "recurrent" (no edge missing for
	// more than W consecutive rounds); it must be ≥ 1.
	W int `json:"w,omitempty"`
	// Act, when in (0,1), wraps the strategy in RandomActivation with that
	// activation probability (SSYNC models). 0 or 1 leaves every agent
	// active in every round.
	Act float64 `json:"act,omitempty"`
}

// Label renders the spec as a canonical, parameter-bearing name. It keys
// aggregation cells and — via Scenario.AdversaryLabel — feeds
// Scenario.Fingerprint, so it must (and does) encode every parameter that
// changes the dynamics.
func (a AdversarySpec) Label() string {
	act := a.Act > 0 && a.Act < 1
	// The label is built in a buffer on the stack, so its one allocation
	// is the string returned. fmt's %g is 'g' at the shortest precision.
	var buf [64]byte
	b := buf[:0]
	if act {
		b = append(strconv.AppendFloat(append(b, "act("...), a.Act, 'g', -1, 64), ")+"...)
	}
	switch a.Kind {
	case "random":
		b = strconv.AppendFloat(append(b, "random(p="...), a.P, 'g', -1, 64)
	case "pin":
		b = strconv.AppendInt(append(b, "pin("...), int64(a.Pin), 10)
	case "persistent":
		b = strconv.AppendInt(append(b, "persistent("...), int64(a.Edge), 10)
	case "tinterval":
		b = strconv.AppendInt(append(b, "tinterval(T="...), int64(a.T), 10)
	case "capped":
		b = strconv.AppendInt(append(b, "capped(r="...), int64(a.R), 10)
	case "recurrent":
		b = strconv.AppendInt(append(b, "recurrent(w="...), int64(a.W), 10)
	default:
		if !act {
			return a.Kind
		}
		return string(append(b, a.Kind...))
	}
	return string(append(b, ')'))
}

// Factory builds the adversary factory the spec describes. Seeded strategies
// consume the per-scenario seed; the stateless proof strategies ignore it.
// Parameters that can only be range-checked against a concrete scenario
// (Pin vs agent count, Edge vs ring size) are validated for sign here; the
// ringsimd service additionally isolates any run-time fault to its own
// scenario row.
func (a AdversarySpec) Factory() (AdversaryFactory, error) {
	if a.Pin < 0 {
		return nil, fmt.Errorf("dynring: adversary pin %d is negative", a.Pin)
	}
	if a.Edge < 0 {
		return nil, fmt.Errorf("dynring: adversary edge %d is negative", a.Edge)
	}
	// 0 is the JSON zero value ("unset": full activation), 1 is explicit
	// full activation. Anything outside [0,1], NaN included, is rejected
	// rather than silently running fully active — that would invert the
	// dynamics.
	if !(a.Act >= 0 && a.Act <= 1) {
		return nil, fmt.Errorf("dynring: adversary act %g outside [0,1]", a.Act)
	}
	var base AdversaryFactory
	switch a.Kind {
	case "none":
		base = Fixed(NoAdversary())
	case "random":
		base = RandomEdgesFactory(a.P)
	case "greedy":
		base = Fixed(GreedyBlocking())
	case "frontier":
		base = Fixed(FrontierGuarding())
	case "pin":
		base = Fixed(PinAgent(a.Pin))
	case "persistent":
		base = Fixed(KeepEdgeRemoved(a.Edge))
	case "prevent":
		base = Fixed(PreventMeetings())
	case "tinterval":
		if a.T < 1 {
			return nil, fmt.Errorf("dynring: tinterval needs a phase length T ≥ 1 (got %d)", a.T)
		}
		base = TIntervalFactory(a.T)
	case "capped":
		if a.R < 1 {
			return nil, fmt.Errorf("dynring: capped needs a removal cap r ≥ 1 (got %d)", a.R)
		}
		base = Fixed(CappedRemoval(a.R))
	case "recurrent":
		if a.W < 1 {
			return nil, fmt.Errorf("dynring: recurrent needs a window w ≥ 1 (got %d)", a.W)
		}
		base = RecurrentFactory(a.W)
	default:
		return nil, fmt.Errorf("dynring: unknown adversary kind %q", a.Kind)
	}
	if a.Act > 0 && a.Act < 1 {
		return RandomActivationFactory(a.Act, base), nil
	}
	return base, nil
}

// ParseAdversary parses a canonical adversary label back into its spec —
// the inverse of AdversarySpec.Label, and the grammar behind cmd/ringsim's
// parameter-bearing -adversary/-adversaries values:
//
//	label   := [ "act(" float ")+" ] strategy    (0 < float ≤ 1)
//	strategy:= "none" | "greedy" | "frontier" | "prevent"
//	         | "random(p=" float ")" | "pin(" int ")" | "persistent(" int ")"
//	         | "tinterval(T=" int ")" | "capped(r=" int ")" | "recurrent(w=" int ")"
//
// Parameter keys are matched case-insensitively. The returned spec is
// validated (ParseAdversary fails exactly when spec.Factory would), and
// round-trips: ParseAdversary(spec.Label()) reproduces the spec.
func ParseAdversary(label string) (AdversarySpec, error) {
	var spec AdversarySpec
	s := strings.TrimSpace(label)
	if strings.HasPrefix(s, "act(") {
		end := strings.Index(s, ")+")
		if end < 0 {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: act(...) wrapper not closed with \")+\"", label)
		}
		v, err := strconv.ParseFloat(s[len("act("):end], 64)
		if err != nil {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: bad activation probability: %v", label, err)
		}
		// A written act(p) asks for SSYNC activation, so unlike the JSON
		// field it has no "unset" value: act(0) would run fully active.
		if !(v > 0 && v <= 1) {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: activation probability %g outside (0,1]", label, v)
		}
		spec.Act = v
		s = s[end+2:]
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		spec.Kind = s
	} else {
		if !strings.HasSuffix(s, ")") {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: unbalanced parentheses", label)
		}
		spec.Kind = s[:open]
		arg := s[open+1 : len(s)-1]
		// Accept both the canonical keyed form (p=0.5, T=2) and a bare
		// value; the key, when present, must match the kind's parameter.
		key := ""
		if eq := strings.IndexByte(arg, '='); eq >= 0 {
			key = strings.ToLower(strings.TrimSpace(arg[:eq]))
			arg = arg[eq+1:]
		}
		arg = strings.TrimSpace(arg)
		checkKey := func(want string) error {
			if key != "" && key != want {
				return fmt.Errorf("dynring: adversary label %q: parameter %q, want %q", label, key, want)
			}
			return nil
		}
		var err error
		switch spec.Kind {
		case "random":
			if err = checkKey("p"); err == nil {
				spec.P, err = strconv.ParseFloat(arg, 64)
			}
		case "pin":
			if err = checkKey("pin"); err == nil {
				spec.Pin, err = strconv.Atoi(arg)
			}
		case "persistent":
			if err = checkKey("edge"); err == nil {
				spec.Edge, err = strconv.Atoi(arg)
			}
		case "tinterval":
			if err = checkKey("t"); err == nil {
				spec.T, err = strconv.Atoi(arg)
			}
		case "capped":
			if err = checkKey("r"); err == nil {
				spec.R, err = strconv.Atoi(arg)
			}
		case "recurrent":
			if err = checkKey("w"); err == nil {
				spec.W, err = strconv.Atoi(arg)
			}
		default:
			err = fmt.Errorf("dynring: unknown adversary kind %q", spec.Kind)
		}
		if err != nil {
			return AdversarySpec{}, fmt.Errorf("dynring: adversary label %q: %v", label, err)
		}
	}
	if _, err := spec.Factory(); err != nil {
		return AdversarySpec{}, err
	}
	return spec, nil
}

// ScenarioSpec is the serializable subset of Scenario: everything except
// the function-valued escape hatches (NewProtocols, a custom NewAdversary,
// Observer). See Scenario for field semantics; zero values mean "use the
// algorithm's default" exactly as there.
type ScenarioSpec struct {
	Name      string `json:"name,omitempty"`
	Size      int    `json:"size"`
	Landmark  int    `json:"landmark"`
	Algorithm string `json:"algorithm"`
	// Model is "", "default", "fsync", "ssync-ns", "ssync-pt" or "ssync-et".
	Model      string `json:"model,omitempty"`
	UpperBound int    `json:"upper_bound,omitempty"`
	ExactSize  int    `json:"exact_size,omitempty"`
	Starts     []int  `json:"starts,omitempty"`
	// Orients are "cw"/"ccw" strings.
	Orients []string `json:"orients,omitempty"`
	// Adversary describes the dynamics; nil means an always-connected ring.
	Adversary        *AdversarySpec `json:"adversary,omitempty"`
	Seed             int64          `json:"seed,omitempty"`
	MaxRounds        int            `json:"max_rounds,omitempty"`
	StopWhenExplored bool           `json:"stop_when_explored,omitempty"`
	FairnessBound    int            `json:"fairness_bound,omitempty"`
	DetectCycles     bool           `json:"detect_cycles,omitempty"`
}

// ParseModel converts a wire model name to a Model. The empty string and
// "default" map to ModelDefault.
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return ModelDefault, nil
	case "fsync":
		return FSync, nil
	case "ssync-ns", "ssync/ns":
		return SSyncNS, nil
	case "ssync-pt", "ssync/pt":
		return SSyncPT, nil
	case "ssync-et", "ssync/et":
		return SSyncET, nil
	default:
		return ModelDefault, fmt.Errorf("dynring: unknown model %q", s)
	}
}

// ParseOrient converts "cw"/"ccw" to a GlobalDir.
func ParseOrient(s string) (GlobalDir, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cw":
		return CW, nil
	case "ccw":
		return CCW, nil
	default:
		return 0, fmt.Errorf("dynring: orientation %q (want cw or ccw)", s)
	}
}

// Scenario materializes the spec into a runnable Scenario, constructing the
// adversary factory and filling AdversaryLabel with the spec's Label.
func (sp ScenarioSpec) Scenario() (Scenario, error) {
	model, err := ParseModel(sp.Model)
	if err != nil {
		return Scenario{}, err
	}
	var orients []GlobalDir
	if sp.Orients != nil {
		orients = make([]GlobalDir, len(sp.Orients))
		for i, o := range sp.Orients {
			if orients[i], err = ParseOrient(o); err != nil {
				return Scenario{}, err
			}
		}
	}
	sc := Scenario{
		Name:             sp.Name,
		Size:             sp.Size,
		Landmark:         sp.Landmark,
		Algorithm:        sp.Algorithm,
		Model:            model,
		UpperBound:       sp.UpperBound,
		ExactSize:        sp.ExactSize,
		Starts:           sp.Starts,
		Orients:          orients,
		Seed:             sp.Seed,
		MaxRounds:        sp.MaxRounds,
		StopWhenExplored: sp.StopWhenExplored,
		FairnessBound:    sp.FairnessBound,
		DetectCycles:     sp.DetectCycles,
	}
	if sp.Adversary != nil {
		if sc.NewAdversary, err = sp.Adversary.Factory(); err != nil {
			return Scenario{}, err
		}
		sc.AdversaryLabel = sp.Adversary.Label()
	}
	return sc, nil
}

// Spec converts the scenario's data fields to wire form, the inverse of
// ScenarioSpec.Scenario. Function-valued fields cannot cross the wire:
// dynamics must be described by an AdversarySpec (in the spec's Adversary
// field or a SweepSpec's adversary axis), so a scenario carrying a live
// NewAdversary or NewProtocols factory is rejected rather than silently
// stripped of its dynamics.
func (s Scenario) Spec() (ScenarioSpec, error) {
	if s.NewProtocols != nil {
		return ScenarioSpec{}, fmt.Errorf("%w: NewProtocols factories have no wire form", ErrNotFingerprintable)
	}
	if s.NewAdversary != nil {
		return ScenarioSpec{}, fmt.Errorf("%w: describe the dynamics as an AdversarySpec instead of a live factory", ErrNotFingerprintable)
	}
	sp := ScenarioSpec{
		Name:             s.Name,
		Size:             s.Size,
		Landmark:         s.Landmark,
		Algorithm:        s.Algorithm,
		UpperBound:       s.UpperBound,
		ExactSize:        s.ExactSize,
		Starts:           s.Starts,
		Seed:             s.Seed,
		MaxRounds:        s.MaxRounds,
		StopWhenExplored: s.StopWhenExplored,
		FairnessBound:    s.FairnessBound,
		DetectCycles:     s.DetectCycles,
	}
	if s.Model != ModelDefault {
		// Model.String names ("FSYNC", "SSYNC/NS", ...) round-trip through
		// ParseModel, which is case-insensitive and accepts the "/" forms.
		sp.Model = strings.ToLower(s.Model.String())
	}
	for _, o := range s.Orients {
		if o == CW {
			sp.Orients = append(sp.Orients, "cw")
		} else {
			sp.Orients = append(sp.Orients, "ccw")
		}
	}
	return sp, nil
}

// WireSpec converts the scenario to wire form like Spec, additionally
// reconstructing the AdversarySpec from a live factory's canonical
// AdversaryLabel (Spec rejects live factories outright). This is what lets
// a cluster node re-serialize a scenario it expanded from a grid and proxy
// it to the fingerprint's owner: for every built-in adversary the label
// round-trips through ParseAdversary by construction.
//
// The reconstruction leans on the label contract behind
// Scenario.Fingerprint — a factory labelled with a canonical kind must
// behave as that kind. A custom factory with a non-canonical label (or an
// unlabelled one) fails with ErrNotFingerprintable; such scenarios are
// not proxyable and execute on the node that holds them.
func (s Scenario) WireSpec() (ScenarioSpec, error) {
	if s.NewAdversary == nil {
		return s.Spec()
	}
	as, err := ParseAdversary(s.AdversaryLabel)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("%w: adversary label %q has no wire form: %v",
			ErrNotFingerprintable, s.AdversaryLabel, err)
	}
	bare := s
	bare.NewAdversary = nil
	bare.AdversaryLabel = ""
	sp, err := bare.Spec()
	if err != nil {
		return ScenarioSpec{}, err
	}
	sp.Adversary = &as
	return sp, nil
}

// SweepSpec is the serializable counterpart of Sweep: a base scenario spec
// plus the grid axes. It deliberately has no worker knob — local callers set
// Sweep.Workers after conversion, and the ringsimd service schedules every
// job on one shared pool.
//
// Scenarios, when non-empty, switches the spec to explicit-list form: the
// job is exactly that scenario list, in order, and Base plus every axis
// must be empty (mixing the two forms is rejected — a grid silently glued
// to a list would make the job's row order ambiguous). The explicit form
// is how the cluster-routing client ships each owner its share of an
// expanded grid; axis-form specs remain the wire format for whole grids.
type SweepSpec struct {
	Base        ScenarioSpec    `json:"base"`
	Algorithms  []string        `json:"algorithms,omitempty"`
	Sizes       []int           `json:"sizes,omitempty"`
	Seeds       []int64         `json:"seeds,omitempty"`
	Adversaries []AdversarySpec `json:"adversaries,omitempty"`
	Scenarios   []ScenarioSpec  `json:"scenarios,omitempty"`
}

// ScenarioList expands the spec to its job rows, in order, handling both
// forms: explicit-list specs materialize and validate each ScenarioSpec,
// axis-form specs expand through Sweep.Scenarios. It is the single
// expansion path of the ringsimd service and the remote client, so both
// ends of the wire agree on row order by construction.
func (sp SweepSpec) ScenarioList() ([]Scenario, error) {
	out, _, err := sp.appendRows(nil, nil, false)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkExplicit rejects an explicit-list spec that also sets base or axes.
func (sp *SweepSpec) checkExplicit() error {
	// IsZero, unlike a DeepEqual against ScenarioSpec{}, boxes nothing;
	// the two agree, since ScenarioSpec holds no floats.
	if len(sp.Algorithms)+len(sp.Sizes)+len(sp.Seeds)+len(sp.Adversaries) > 0 ||
		!reflect.ValueOf(&sp.Base).Elem().IsZero() {
		return fmt.Errorf("dynring: SweepSpec mixes explicit scenarios with base/axes — use one form")
	}
	return nil
}

// rowError names the explicit-list row an expansion error comes from.
func rowError(i int, err error) error {
	return fmt.Errorf("dynring: scenarios[%d]: %w", i, err)
}

// Sweep materializes the spec. Axis expansion and validation still happen in
// Sweep.Scenarios, so an invalid grid is reported there, not here.
// Explicit-list specs have no Sweep form; use ScenarioList.
func (sp SweepSpec) Sweep() (Sweep, error) {
	if len(sp.Scenarios) > 0 {
		return Sweep{}, fmt.Errorf("dynring: explicit-list SweepSpec has no axis form — expand with ScenarioList")
	}
	base, err := sp.Base.Scenario()
	if err != nil {
		return Sweep{}, err
	}
	sw := Sweep{
		Base:       base,
		Algorithms: sp.Algorithms,
		Sizes:      sp.Sizes,
		Seeds:      sp.Seeds,
	}
	for _, as := range sp.Adversaries {
		f, err := as.Factory()
		if err != nil {
			return Sweep{}, err
		}
		sw.Adversaries = append(sw.Adversaries, SweepAdversary{Name: as.Label(), New: f})
	}
	return sw, nil
}

// AppendJSON appends the spec's JSON form to dst: exactly the bytes
// json.Marshal emits for it. Like json.Marshal it fails on a NaN or
// infinite parameter, with json.Marshal's error.
func (sp SweepSpec) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := sp.Base.AppendJSON(append(dst, `{"base":`...))
	if err != nil {
		return dst, err
	}
	if len(sp.Algorithms) > 0 {
		dst = wire.AppendStrings(append(dst, `,"algorithms":`...), sp.Algorithms)
	}
	if len(sp.Sizes) > 0 {
		dst = wire.AppendInts(append(dst, `,"sizes":`...), sp.Sizes)
	}
	if len(sp.Seeds) > 0 {
		dst = wire.AppendInts(append(dst, `,"seeds":`...), sp.Seeds)
	}
	if dst, err = appendSpecs(dst, `,"adversaries":[`, sp.Adversaries); err != nil {
		return dst, err
	}
	if dst, err = appendSpecs(dst, `,"scenarios":[`, sp.Scenarios); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// AppendJSON appends the spec's JSON form to dst, as SweepSpec.AppendJSON
// does.
func (sp ScenarioSpec) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	if sp.Name != "" {
		dst = append(wire.AppendString(append(dst, `"name":`...), sp.Name), ',')
	}
	dst = strconv.AppendInt(append(dst, `"size":`...), int64(sp.Size), 10)
	dst = strconv.AppendInt(append(dst, `,"landmark":`...), int64(sp.Landmark), 10)
	dst = wire.AppendString(append(dst, `,"algorithm":`...), sp.Algorithm)
	if sp.Model != "" {
		dst = wire.AppendString(append(dst, `,"model":`...), sp.Model)
	}
	dst = appendInt(dst, `,"upper_bound":`, int64(sp.UpperBound))
	dst = appendInt(dst, `,"exact_size":`, int64(sp.ExactSize))
	if len(sp.Starts) > 0 {
		dst = wire.AppendInts(append(dst, `,"starts":`...), sp.Starts)
	}
	if len(sp.Orients) > 0 {
		dst = wire.AppendStrings(append(dst, `,"orients":`...), sp.Orients)
	}
	if sp.Adversary != nil {
		var err error
		if dst, err = sp.Adversary.AppendJSON(append(dst, `,"adversary":`...)); err != nil {
			return dst, err
		}
	}
	dst = appendInt(dst, `,"seed":`, sp.Seed)
	dst = appendInt(dst, `,"max_rounds":`, int64(sp.MaxRounds))
	if sp.StopWhenExplored {
		dst = append(dst, `,"stop_when_explored":true`...)
	}
	dst = appendInt(dst, `,"fairness_bound":`, int64(sp.FairnessBound))
	if sp.DetectCycles {
		dst = append(dst, `,"detect_cycles":true`...)
	}
	return append(dst, '}'), nil
}

// AppendJSON appends the spec's JSON form to dst, as SweepSpec.AppendJSON
// does.
func (a AdversarySpec) AppendJSON(dst []byte) ([]byte, error) {
	dst = wire.AppendString(append(dst, `{"kind":`...), a.Kind)
	dst, err := appendFloat(dst, `,"p":`, a.P)
	if err != nil {
		return dst, err
	}
	dst = appendInt(dst, `,"edge":`, int64(a.Edge))
	dst = appendInt(dst, `,"pin":`, int64(a.Pin))
	dst = appendInt(dst, `,"t":`, int64(a.T))
	dst = appendInt(dst, `,"r":`, int64(a.R))
	dst = appendInt(dst, `,"w":`, int64(a.W))
	if dst, err = appendFloat(dst, `,"act":`, a.Act); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendSpecs appends an omitempty array member: unless v is empty, key
// (which opens the array) and each element's JSON.
func appendSpecs[T interface{ AppendJSON([]byte) ([]byte, error) }](dst []byte, key string, v []T) ([]byte, error) {
	if len(v) == 0 {
		return dst, nil
	}
	dst = append(dst, key...)
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = x.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendInt and appendFloat append an omitempty member: key and v, unless
// v is 0 (or -0).
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendFloat(dst []byte, key string, v float64) ([]byte, error) {
	if v == 0 {
		return dst, nil
	}
	return wire.AppendFloat(append(dst, key...), v)
}

// DecodeSweepSpec decodes a POST /v1/sweeps body. Specs in the canonical
// form json.Marshal emits take a fast path; any other input is decoded by
// encoding/json with unknown fields disallowed, which defines what is
// accepted and the error for what is not. Either way only whitespace may
// follow the spec.
func DecodeSweepSpec(data []byte) (SweepSpec, error) {
	d := getScratch()
	defer putScratch(d)
	l := wire.NewLexer(data)
	if readSweepSpec(&l, &d.spec); l.End() {
		return d.spec.clone(), nil
	}
	var sp SweepSpec
	return sp, decodeStrict(data, &sp)
}

// decodeStrict is the spec decoders' slow path and definition: one JSON
// value with no unknown fields, followed by nothing but whitespace.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		// Let encoding/json word the trailing-data error exactly as
		// json.Unmarshal does.
		return json.Unmarshal(data, new(struct{}))
	}
	return nil
}

// scratch is the storage the fast path decodes request bodies into, pooled
// across requests: the rows of a POST /v1/sweeps body, or the scenario of
// a POST /v1/run row. Its decoders reuse what it holds (see readSweepSpec)
// and their callers copy out what they keep.
type scratch struct {
	spec SweepSpec
	row  ScenarioSpec
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledRows bounds the rows a pooled scratch keeps room for; a rare
// larger body's scratch is left to the collector.
const maxPooledRows = 1024

func getScratch() *scratch { return scratches.Get().(*scratch) }

func putScratch(d *scratch) {
	if cap(d.spec.Scenarios) <= maxPooledRows && cap(d.spec.Adversaries) <= maxPooledRows {
		scratches.Put(d)
	}
}

// closedNames interns the two closed-set strings an explicit row carries:
// the registry's algorithm names and the adversary kinds. The fast path reads them without allocating.
var closedNames = func() map[string]string {
	names := map[string]string{}
	for _, s := range append(core.Names(),
		"none", "random", "greedy", "frontier", "pin", "persistent", "prevent", "tinterval", "capped", "recurrent") {
		names[s] = s
	}
	return names
}()

// clone copies sp out of decode storage: the row and adversary arrays at
// their exact size, and fresh adversary specs. The strings, Starts,
// Orients and the axis arrays are never reused by the decoders, so they
// are shared.
func (sp *SweepSpec) clone() SweepSpec {
	out := *sp
	out.Base = sp.Base.clone()
	out.Adversaries = exact(sp.Adversaries)
	if sp.Scenarios != nil {
		out.Scenarios = make([]ScenarioSpec, len(sp.Scenarios))
		for i := range sp.Scenarios {
			out.Scenarios[i] = sp.Scenarios[i].clone()
		}
	}
	return out
}

func (sp ScenarioSpec) clone() ScenarioSpec {
	if sp.Adversary != nil {
		a := *sp.Adversary
		sp.Adversary = &a
	}
	return sp
}

// exact copies s into an array of exactly its length; nil stays nil.
func exact[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// readSweepSpec, readScenarioSpec and readAdversarySpec are the spec
// decoders' fast path over the form json.Marshal emits; anything else
// fails l. They decode into the storage an earlier decode left in sp —
// the Scenarios and Adversaries arrays and each row's adversary spec — and
// clear every field they do not read, so what they return never depends
// on what sp held. Strings, Starts, Orients and the axis arrays are
// allocated afresh, interned names (see closedNames) excepted.
func readSweepSpec(l *wire.Lexer, sp *SweepSpec) {
	rows, advs := sp.Scenarios[:0], sp.Adversaries[:0]
	*sp = SweepSpec{}
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "base":
			l.Field(&seen, 0)
			readScenarioSpec(l, &sp.Base)
		case "algorithms":
			l.Field(&seen, 1)
			sp.Algorithms = l.Strings()
		case "sizes":
			l.Field(&seen, 2)
			sp.Sizes = l.Ints()
		case "seeds":
			l.Field(&seen, 3)
			sp.Seeds = l.Int64s()
		case "adversaries":
			l.Field(&seen, 4)
			l.Expect('[')
			if advs == nil {
				advs = []AdversarySpec{}
			}
			for j := 0; l.Next(j, ']'); j++ {
				advs = append(advs, AdversarySpec{})
				readAdversarySpec(l, &advs[j])
			}
			sp.Adversaries = advs
		case "scenarios":
			l.Field(&seen, 5)
			l.Expect('[')
			if rows == nil {
				rows = []ScenarioSpec{}
			}
			for j := 0; l.Next(j, ']'); j++ {
				if j < cap(rows) {
					rows = rows[:j+1]
				} else {
					rows = append(rows, ScenarioSpec{})
				}
				readScenarioSpec(l, &rows[j])
			}
			sp.Scenarios = rows
		default:
			l.Fail()
		}
	}
}

func readScenarioSpec(l *wire.Lexer, sp *ScenarioSpec) {
	adv := sp.Adversary
	*sp = ScenarioSpec{}
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "name":
			l.Field(&seen, 0)
			sp.Name = l.String()
		case "size":
			l.Field(&seen, 1)
			sp.Size = l.Int()
		case "landmark":
			l.Field(&seen, 2)
			sp.Landmark = l.Int()
		case "algorithm":
			l.Field(&seen, 3)
			sp.Algorithm = l.Intern(closedNames)
		case "model":
			l.Field(&seen, 4)
			sp.Model = l.String()
		case "upper_bound":
			l.Field(&seen, 5)
			sp.UpperBound = l.Int()
		case "exact_size":
			l.Field(&seen, 6)
			sp.ExactSize = l.Int()
		case "starts":
			l.Field(&seen, 7)
			sp.Starts = l.Ints()
		case "orients":
			l.Field(&seen, 8)
			sp.Orients = l.Strings()
		case "adversary":
			l.Field(&seen, 9)
			if adv == nil {
				adv = new(AdversarySpec)
			}
			sp.Adversary = adv
			readAdversarySpec(l, adv)
		case "seed":
			l.Field(&seen, 10)
			sp.Seed = l.Int64()
		case "max_rounds":
			l.Field(&seen, 11)
			sp.MaxRounds = l.Int()
		case "stop_when_explored":
			l.Field(&seen, 12)
			sp.StopWhenExplored = l.Bool()
		case "fairness_bound":
			l.Field(&seen, 13)
			sp.FairnessBound = l.Int()
		case "detect_cycles":
			l.Field(&seen, 14)
			sp.DetectCycles = l.Bool()
		default:
			l.Fail()
		}
	}
}

func readAdversarySpec(l *wire.Lexer, a *AdversarySpec) {
	*a = AdversarySpec{}
	var seen uint64
	l.Expect('{')
	for i := 0; l.Next(i, '}'); i++ {
		switch string(l.Key()) {
		case "kind":
			l.Field(&seen, 0)
			a.Kind = l.Intern(closedNames)
		case "p":
			l.Field(&seen, 1)
			a.P = l.Float()
		case "edge":
			l.Field(&seen, 2)
			a.Edge = l.Int()
		case "pin":
			l.Field(&seen, 3)
			a.Pin = l.Int()
		case "t":
			l.Field(&seen, 4)
			a.T = l.Int()
		case "r":
			l.Field(&seen, 5)
			a.R = l.Int()
		case "w":
			l.Field(&seen, 6)
			a.W = l.Int()
		case "act":
			l.Field(&seen, 7)
			a.Act = l.Float()
		default:
			l.Fail()
		}
	}
}
