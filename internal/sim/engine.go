package sim

import (
	"fmt"

	"dynring/internal/agent"
	"dynring/internal/ring"
)

// Step executes one round: activation, Look, Compute, adversarial edge
// removal, port resolution under mutual exclusion, movement, and transport.
// It returns ErrAllTerminated once no live agent remains.
//
// The round makes one pass over the active agents to step their protocols;
// the same pass fixes each decision as the adversary's Intent and as the
// global direction the release, grab and move phases read. The World keeps
// a live-agent count (set by Reset, lowered at each termination) instead of
// scanning for terminations, so with every agent live a full activation is
// a copy of AgentIDs (under SSYNC, when the adversary answers with AgentIDs
// itself). Each active agent's protocol steps on the World's one Look
// snapshot, passed by reference and refilled per activation. The sleeper
// pass (passive transport under PT, transport debt under ET) runs only in
// rounds where some live agent slept.
//
// The steady state performs zero heap allocations: all per-round working
// storage lives in the World's preallocated scratch (see Reset). Only the
// opt-in paths allocate — an Observer's RoundRecord, and whatever a custom
// SSYNC adversary's Activate allocates (the stock adversaries allocate
// nothing; see AgentIDs).
func (w *World) Step() error {
	if w.live == 0 {
		return ErrAllTerminated
	}
	t := w.round
	// stepChanged certifies, when false after the round, that no durable
	// engine state changed: the quiescence-leap probe builds on it (leap.go).
	// Every mutation site below that survives the round must set it.
	// forcedActivation flags a fairness/ET forcing in this round's
	// activation set, which disqualifies the round as a leap probe.
	w.stepChanged = false
	w.forcedActivation = false

	active, err := w.selectActive(t)
	if err != nil {
		return err
	}

	// Look + Compute: snapshots are taken before anything changes, so all
	// active agents observe the same configuration. Each decision is fixed
	// as the adversary's intent and, privately, as the agent's plan: its
	// global direction (0 to stay or terminate), which the resolution
	// phases below read instead of mapping the private direction again.
	intents := w.scratch.intents[:len(active)]
	plans := w.scratch.plans[:len(active)]
	for k, id := range active {
		a := &w.agents[id]
		w.fillView(id, &w.look)
		d, stepErr := a.proto.Step(&w.look)
		if stepErr != nil {
			return fmt.Errorf("%w: agent %d in round %d: %v", ErrProtocolFault, id, t, stepErr)
		}
		a.lastSeen = t
		in := Intent{Agent: id, From: a.node, TargetEdge: NoEdge, Terminate: d.Terminate}
		var g ring.GlobalDir
		if !d.Terminate && d.Dir != agent.NoDir {
			g = w.toGlobal(id, d.Dir)
			in.Move = true
			in.Dir = g
			in.TargetEdge = w.edge(a.node, g)
		}
		intents[k] = in
		plans[k] = plan{dir: g, terminate: d.Terminate}
	}

	// Let the adversary pick the missing edges: exactly one per round under
	// 1-interval connectivity (MissingEdge), up to its cap for a
	// MultiAdversary (MissingEdges).
	req := w.scratch.missingReq[:0]
	if w.madv != nil {
		req = w.madv.MissingEdges(t, w, intents, req)
	} else if w.adv != nil {
		if e := w.adv.MissingEdge(t, w, intents); e != NoEdge {
			req = append(req, e)
		}
	}
	missing := w.scratch.missing[:0]
	bits := w.scratch.missingBits
	for _, e := range req {
		if e == NoEdge {
			continue
		}
		if !w.ring.ValidEdge(e) {
			// Roll back the bits set for earlier valid entries: the World
			// must not carry a phantom missing set past the failed round.
			for _, ok := range missing {
				bits[ok] = false
			}
			w.scratch.missing = missing[:0]
			return fmt.Errorf("%w: edge %d in round %d", ErrInvalidEdge, e, t)
		}
		if !bits[e] {
			bits[e] = true
			missing = append(missing, e)
		}
	}
	// ET veto: an agent whose transport debt exceeded the fairness bound
	// was force-activated this round; the ET model guarantees it acts in a
	// round where its edge is present, so the engine refuses to remove
	// that edge now.
	if w.model == SSyncET && len(missing) > 0 {
		vetoed := false
		for _, id := range active {
			a := &w.agents[id]
			if a.etDebt >= w.fairness && a.onPort {
				if e := w.edge(a.node, a.portDir); bits[e] {
					bits[e] = false
					vetoed = true
				}
			}
		}
		if vetoed {
			kept := missing[:0]
			for _, e := range missing {
				if bits[e] {
					kept = append(kept, e)
				}
			}
			missing = kept
		}
	}
	w.scratch.missing = missing

	// Resolution phase 1: releases. Agents abandoning their port step into
	// the node interior before grabs are processed. A plan to stay or
	// terminate has direction 0, which no port has.
	for k, id := range active {
		a := &w.agents[id]
		if a.onPort && plans[k].dir != a.portDir {
			a.onPort = false
			w.stepChanged = true
		}
	}

	// Resolution phase 2: grabs, in mutual exclusion. Ties go to the
	// lowest id unless a TieBreaker is installed. Requests are collected in
	// activation (ascending id) order and grouped per port by scanning —
	// the request count is bounded by the agent count, so the quadratic
	// scan is cheaper than the map it replaces.
	reqs := w.scratch.reqs[:0]
	for k, id := range active {
		a := &w.agents[id]
		g := plans[k].dir
		// An agent still on a port after the releases holds the one it
		// wants: already positioned, it cannot fail.
		if g == 0 || a.onPort {
			continue
		}
		reqs = append(reqs, portReq{id: id, node: a.node, dir: g})
	}
	for i := range reqs {
		k := reqs[i]
		first := true
		for j := 0; j < i; j++ {
			if reqs[j].node == k.node && reqs[j].dir == k.dir {
				first = false // this port was already resolved
				break
			}
		}
		if !first {
			continue
		}
		if w.portHolder(k.node, k.dir) != -1 {
			continue // occupied by a sleeper or a keeper: everyone fails
		}
		contenders := w.scratch.contenders[:0]
		for j := i; j < len(reqs); j++ {
			if reqs[j].node == k.node && reqs[j].dir == k.dir {
				contenders = append(contenders, reqs[j].id)
			}
		}
		winner := contenders[0]
		if len(contenders) > 1 && w.tie != nil {
			chosen := w.tie.BreakTie(t, w, k.node, k.dir, contenders)
			for _, c := range contenders {
				if c == chosen {
					winner = chosen
					break
				}
			}
		}
		a := &w.agents[winner]
		a.onPort = true
		a.portDir = k.dir
		w.stepChanged = true
	}

	// Whether some live agent slept this round must be read before the
	// movement phase: a termination there lowers the live count, and a
	// sleeper beside a terminating agent still needs its transport.
	slept := len(active) < w.live

	// Movement phase for active agents.
	for k, id := range active {
		a := &w.agents[id]
		p := plans[k]
		prevMoved, prevFailed := a.moved, a.failed
		a.failed = false
		switch {
		case p.terminate:
			a.term = true
			w.live--
			a.moved = false
			w.termAt[id] = t
			w.stepChanged = true
		case p.dir == 0:
			a.moved = false
		case !a.onPort:
			// Wanted to move but lost the port race.
			a.moved = false
			a.failed = true
		default:
			edge := w.edge(a.node, a.portDir)
			if !bits[edge] {
				a.node = w.neighbor(a.node, a.portDir)
				a.onPort = false
				a.moved = true
				a.moves++
				w.visit(a.node)
				w.stepChanged = true
			} else {
				a.moved = false
			}
		}
		// The moved/failed flags feed next round's views: a flip is durable
		// state even when the agent stayed put.
		if a.moved != prevMoved || a.failed != prevFailed {
			w.stepChanged = true
		}
	}

	// Transport / debt accounting for agents sleeping on ports: PT carries
	// them over present edges and ET charges them debt, so the pass runs
	// only under those models and only when some agent slept. active is in
	// ascending id order, so walking it alongside the agent table skips the
	// active agents.
	if slept && (w.model == SSyncPT || w.model == SSyncET) {
		next := 0
		for id := range w.agents {
			if next < len(active) && active[next] == id {
				next++
				continue
			}
			a := &w.agents[id]
			if a.term || !a.onPort || bits[w.edge(a.node, a.portDir)] {
				continue
			}
			if w.model == SSyncPT {
				a.node = w.neighbor(a.node, a.portDir)
				a.onPort = false
				a.moved = true
				a.moves++
				w.visit(a.node)
			} else {
				a.etDebt++
			}
			w.stepChanged = true
		}
	}
	// Only ET accrues debt; an activation settles it.
	if w.model == SSyncET {
		for _, id := range active {
			if w.agents[id].etDebt != 0 {
				w.agents[id].etDebt = 0
				w.stepChanged = true
			}
		}
	}

	if w.obs != nil {
		// The record escapes to the observer, which may retain it: hand it
		// fresh copies of the activation and missing sets, never the scratch.
		activeCopy := make([]int, len(active))
		copy(activeCopy, active)
		rec := RoundRecord{
			Round:       t,
			Active:      activeCopy,
			MissingEdge: NoEdge,
			Agents:      w.snapshotAll(),
		}
		if len(missing) > 0 {
			rec.MissingEdge = missing[0]
			rec.MissingEdges = make([]int, len(missing))
			copy(rec.MissingEdges, missing)
		}
		w.obs.ObserveRound(rec)
	}
	for _, e := range missing {
		bits[e] = false
	}
	w.scratch.missing = missing[:0]
	w.round++
	return nil
}

// selectActive computes the activation set for round t into the World's
// scratch, applying fairness forcing in SSYNC models. The returned slice is
// valid until the next call, and the scratch header is kept in sync so the
// set stays readable after Step returns (the leap probe consults it).
func (w *World) selectActive(t int) ([]int, error) {
	act := w.scratch.active[:0]
	if w.model == FSync || w.adv == nil {
		if w.live == len(w.agents) {
			act = append(act, w.scratch.agentIDs...)
		} else {
			for id := range w.agents {
				if !w.agents[id].term {
					act = append(act, id)
				}
			}
		}
		w.scratch.active = act
		return act, nil
	}

	ids := w.adv.Activate(t, w)
	if all := w.scratch.agentIDs; w.live == len(all) && len(ids) == len(all) && &ids[0] == &all[0] {
		// Every agent is live and the adversary activated them all through
		// AgentIDs: the set is complete, sorted and unique, and no agent
		// can be forced into it, so it is copied without marking.
		act = append(act, ids...)
		w.scratch.active = act
		return act, nil
	}
	// Mark the adversary's picks plus the fairness-forced agents, then
	// collect the marks in id order: sorted, unique, live — without
	// allocating.
	mark := w.scratch.mark
	for _, id := range ids {
		if id >= 0 && id < len(w.agents) && !w.agents[id].term {
			mark[id] = true
		}
	}
	for id := range w.agents {
		a := &w.agents[id]
		if a.term {
			continue
		}
		starving := t-a.lastSeen > w.fairness
		etDue := w.model == SSyncET && a.onPort && a.etDebt >= w.fairness
		if (starving || etDue) && !mark[id] {
			mark[id] = true
			// A forced activation makes this round's set differ from the
			// adversary's pure choice, so the round cannot seed a leap: the
			// forced agent would not be re-activated (and, asleep, might
			// even be passively transported) in the rounds a leap skips.
			w.forcedActivation = true
		}
	}
	for id := range w.agents {
		if mark[id] {
			act = append(act, id)
			mark[id] = false
		}
	}
	w.scratch.active = act
	if len(act) == 0 {
		return nil, fmt.Errorf("%w: round %d", ErrEmptyActivation, t)
	}
	return act, nil
}
