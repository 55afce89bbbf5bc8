package sfq

import "math/bits"

// The batch kernel's stepping phases, at every plane width. The scalar
// bit-plane kernel (bitplane.go) runs each phase as several row sweeps:
// shift planes into scratch, then latch, then propagate. Here every
// phase is word-local once the shifted arrival values are in hand —
// vertical shifts read the word W positions away, horizontal shifts
// never cross a word (lanes are packed within words) — so each phase is
// a single sweep that materializes all four directions' arrivals in
// registers, skips words with no signal early, and touches every plane
// word at most once. The phases compute bit-for-bit the same
// transitions as the scalar kernel's (the conformance suite pins every
// width and lane count against it).
//
// Ordering notes relative to the scalar kernel's sweeps:
//   - movePairs and moveGrants process travel directions in pairOrder
//     [South, East, West, North] *per word*, which reproduces the
//     sequential-sweep semantics exactly because every update those
//     sweeps make is word-local (hot, errOut, sentPair, grants all live
//     at the destination word).
//   - fireComplete fuses fireIntermediates and completeHandshakes: the
//     handshake scan reads only state the fire scan writes at the same
//     word, so running both at word k before moving on is equivalent to
//     two full sweeps.

// moveGrows advances grow wavefronts one module and latches arrivals
// (planeState.moveGrows as one fused sweep).
func (b *BatchMesh) moveGrows() {
	bg, v := b.bg, b.variant
	n := bg.n
	w := bg.words
	wm := bg.wmask
	em, wmk := bg.eastMask, bg.westMask
	interior := bg.interior[:n]
	boundary := bg.boundary[:n]
	curN := b.growW.cur[North][:n]
	curE := b.growW.cur[East][:n]
	curS := b.growW.cur[South][:n]
	curW := b.growW.cur[West][:n]
	nxtN := b.growW.nxt[North][:n]
	nxtE := b.growW.nxt[East][:n]
	nxtS := b.growW.nxt[South][:n]
	nxtW := b.growW.nxt[West][:n]
	gfN := b.growFrom[North][:n]
	gfE := b.growFrom[East][:n]
	gfS := b.growFrom[South][:n]
	gfW := b.growFrom[West][:n]
	fired := b.fired[:n]
	bdry := v.Boundary
	reqGrant := v.ReqGrant
	var acc [4]uint64
	for k := 0; k < n; k++ {
		var shN, shS uint64
		if k < n-w {
			shN = curN[k+w]
		}
		if k >= w {
			shS = curS[k-w]
		}
		shE := curE[k] << 1 & em
		shW := curW[k] >> 1 & wmk
		if shN|shS|shE|shW == 0 {
			continue
		}
		in := interior[k]
		if (shN|shS|shE|shW)&in != 0 {
			// A latch is landing at this word: fire eligibility may
			// change, so fireComplete must re-evaluate it.
			b.fireDirty[k>>6] |= 1 << (uint(k) & 63)
		}
		// Latch interior arrivals by entry side (pass 1), then
		// propagate into territory no opposite front has swept (pass
		// 2). gf[d] receives only sh[opp(d)] at this same word, so the
		// latched values are complete before propagation reads them.
		gN := gfN[k] | shS&in
		gS := gfS[k] | shN&in
		gE := gfE[k] | shW&in
		gW := gfW[k] | shE&in
		gfN[k], gfS[k], gfE[k], gfW[k] = gN, gS, gE, gW
		pN := shN & in &^ gN
		pE := shE & in &^ gE
		pS := shS & in &^ gS
		pW := shW & in &^ gW
		if p := pN | pE | pS | pW; p != 0 {
			nxtN[k] |= pN
			nxtE[k] |= pE
			nxtS[k] |= pS
			nxtW[k] |= pW
			acc[k&wm] |= p
		}
		if !bdry {
			continue
		}
		bd := boundary[k]
		if bd == 0 {
			continue
		}
		// Boundary modules fire on first arrival. Each boundary cell
		// has exactly one interior neighbor, so the per-direction fire
		// sets are bit-disjoint and merge without a tie-break.
		f := fired[k]
		fbN := shN & bd &^ f
		fbE := shE & bd &^ f
		fbS := shS & bd &^ f
		fbW := shW & bd &^ f
		fb := fbN | fbE | fbS | fbW
		if fb == 0 {
			continue
		}
		fired[k] = f | fb
		// Requests head back out the entry side: e = opposite(travel).
		b.reqDirs[South][k] |= fbN
		b.reqDirs[West][k] |= fbE
		b.reqDirs[North][k] |= fbS
		b.reqDirs[East][k] |= fbW
		if reqGrant {
			b.reqW.nxt[South][k] |= fbN
			b.reqW.nxt[West][k] |= fbE
			b.reqW.nxt[North][k] |= fbS
			b.reqW.nxt[East][k] |= fbW
			b.reqW.nxtAny[k&wm] |= fb
		} else {
			b.sentPair[k] |= fb
			b.pairW.nxt[South][k] |= fbN
			b.pairW.nxt[West][k] |= fbE
			b.pairW.nxt[North][k] |= fbS
			b.pairW.nxt[East][k] |= fbW
			b.pairW.nxtAny[k&wm] |= fb
			b.pairBW.nxt[South][k] |= fbN
			b.pairBW.nxt[West][k] |= fbE
			b.pairBW.nxt[North][k] |= fbS
			b.pairBW.nxt[East][k] |= fbW
			b.pairBW.nxtAny[k&wm] |= fb
		}
	}
	b.growW.orAny(&acc)
}

// moveReqs is planeState.moveReqs as one fused sweep, with a per-lane
// grant priority: the rotated retry offset is lane-local state, so when
// any lane is mid retry the grant policy runs lane-by-lane over the
// lanes of the word's column (the fast path — all lanes at fixed
// hardware priority — stays whole-word).
func (b *BatchMesh) moveReqs() {
	bg := b.bg
	n := bg.n
	w := bg.words
	wm := bg.wmask
	em, wmk := bg.eastMask, bg.westMask
	interior := bg.interior[:n]
	curN := b.reqW.cur[North][:n]
	curE := b.reqW.cur[East][:n]
	curS := b.reqW.cur[South][:n]
	curW := b.reqW.cur[West][:n]
	nxtN := b.reqW.nxt[North][:n]
	nxtE := b.reqW.nxt[East][:n]
	nxtS := b.reqW.nxt[South][:n]
	nxtW := b.reqW.nxt[West][:n]
	gnN := b.grantW.nxt[North][:n]
	gnE := b.grantW.nxt[East][:n]
	gnS := b.grantW.nxt[South][:n]
	gnW := b.grantW.nxt[West][:n]
	hotP := b.hot[:n]
	grantedP := b.granted[:n]
	var acc [4]uint64
	for k := 0; k < n; k++ {
		var aN, aS uint64
		if k < n-w {
			aN = curN[k+w]
		}
		if k >= w {
			aS = curS[k-w]
		}
		aE := curE[k] << 1 & em
		aW := curW[k] >> 1 & wmk
		if aN|aS|aE|aW == 0 {
			continue
		}
		in := interior[k]
		hot := hotP[k]
		// Requests pass through non-hot interior modules and latch at
		// hot ones (travel direction d, entry Opposite(d)).
		mvN := aN & in
		mvE := aE & in
		mvS := aS & in
		mvW := aW & in
		latN := mvN & hot
		latE := mvE & hot
		latS := mvS & hot
		latW := mvW & hot
		psN := mvN &^ hot
		psE := mvE &^ hot
		psS := mvS &^ hot
		psW := mvW &^ hot
		if ps := psN | psE | psS | psW; ps != 0 {
			nxtN[k] |= psN
			nxtE[k] |= psE
			nxtS[k] |= psS
			nxtW[k] |= psW
			acc[k&wm] |= ps
		}
		elig := (latN | latE | latS | latW) &^ grantedP[k]
		if elig == 0 {
			continue
		}
		if b.anyPrio == 0 {
			// Fixed hardware grant priority (grantPrio = N, W, E, S by
			// entry side); arrival by entry e is lat[opposite(e)].
			cN := latS & elig
			taken := cN
			cW := latE & elig &^ taken
			taken |= cW
			cE := latW & elig &^ taken
			taken |= cE
			cS := latN & elig &^ taken
			taken |= cS
			gnN[k] |= cN
			gnW[k] |= cW
			gnE[k] |= cE
			gnS[k] |= cS
			b.grantW.nxtAny[k&wm] |= taken
		} else {
			lat := [4]uint64{latN, latE, latS, latW}
			col := k & wm
			for l := col * bg.perWord; l < bg.colEnd[col]; l++ {
				el := elig & bg.laneBits[l]
				if el == 0 {
					continue
				}
				base := b.lanePrio[l]
				if base == 0 {
					var taken uint64
					for _, e := range grantPrio {
						c := lat[e.Opposite()] & el &^ taken
						if c != 0 {
							b.grantW.nxt[e][k] |= c
							b.grantW.nxtAny[col] |= c
							taken |= c
						}
					}
					continue
				}
				for cls := 0; cls < 4; cls++ {
					ecls := el & bg.classMask[cls][k]
					if ecls == 0 {
						continue
					}
					off := (base + cls) % 4
					var taken uint64
					for j := 0; j < 4; j++ {
						e := grantPrio[(j+off)%4]
						c := lat[e.Opposite()] & ecls &^ taken
						if c != 0 {
							b.grantW.nxt[e][k] |= c
							b.grantW.nxtAny[col] |= c
							taken |= c
						}
					}
				}
			}
		}
		grantedP[k] |= elig
	}
	b.reqW.orAny(&acc)
}

// moveGrants is planeState.moveGrants as one fused sweep, directions
// processed in pairOrder per word.
func (b *BatchMesh) moveGrants() {
	bg := b.bg
	n := bg.n
	w := bg.words
	em, wmk := bg.eastMask, bg.westMask
	interior := bg.interior[:n]
	boundary := bg.boundary[:n]
	curN := b.grantW.cur[North][:n]
	curE := b.grantW.cur[East][:n]
	curS := b.grantW.cur[South][:n]
	curW := b.grantW.cur[West][:n]
	var acc [4]uint64
	for k := 0; k < n; k++ {
		var mvN, mvS uint64
		if k < n-w {
			mvN = curN[k+w]
		}
		if k >= w {
			mvS = curS[k-w]
		}
		mvE := curE[k] << 1 & em
		mvW := curW[k] >> 1 & wmk
		if mvS|mvE|mvW|mvN == 0 {
			continue
		}
		in := interior[k]
		bd := boundary[k]
		f := b.fired[k]
		// pairOrder: South, East, West, North; e = opposite(travel).
		if mvS != 0 {
			b.grantConsume(k, mvS, in, bd, f, North, South, &acc)
		}
		if mvE != 0 {
			b.grantConsume(k, mvE, in, bd, f, West, East, &acc)
		}
		if mvW != 0 {
			b.grantConsume(k, mvW, in, bd, f, East, West, &acc)
		}
		if mvN != 0 {
			b.grantConsume(k, mvN, in, bd, f, South, North, &acc)
		}
	}
	b.grantW.orAny(&acc)
}

// grantConsume is one travel direction of moveGrants at word k:
// interior consumption, pass-through, and the boundary sentPair latch.
func (b *BatchMesh) grantConsume(k int, mv, in, bd, f uint64, e, d Dir, acc *[4]uint64) {
	wm := b.bg.wmask
	mvI := mv & in
	rde := b.reqDirs[e][k]
	cons := mvI & f & rde &^ b.grants[e][k]
	if cons != 0 {
		b.grants[e][k] |= cons
		// A grant was consumed: the module's handshake may now be
		// complete, so fireComplete must re-check this word.
		b.hsDirty[k>>6] |= 1 << (uint(k) & 63)
	}
	pass := mvI &^ cons
	b.grantW.nxt[d][k] |= pass
	acc[k&wm] |= pass
	bc := mv & bd & f & rde &^ b.sentPair[k]
	if bc != 0 {
		b.sentPair[k] |= bc
		b.pairW.nxt[e][k] |= bc
		b.pairW.nxtAny[k&wm] |= bc
		b.pairBW.nxt[e][k] |= bc
		b.pairBW.nxtAny[k&wm] |= bc
	}
}

// movePairs is planeState.movePairs as one fused sweep, directions
// processed in pairOrder per word, with per-lane accounting: pair
// terminations decrement the owning lane's hot counter and Stats, and
// the returned mask has bit l set when lane l completed a pairing this
// cycle (its per-lane pairingDone).
func (b *BatchMesh) movePairs() (done uint64) {
	bg := b.bg
	n := bg.n
	w := bg.words
	em, wmk := bg.eastMask, bg.westMask
	interior := bg.interior[:n]
	curN := b.pairW.cur[North][:n]
	curE := b.pairW.cur[East][:n]
	curS := b.pairW.cur[South][:n]
	curW := b.pairW.cur[West][:n]
	curBN := b.pairBW.cur[North][:n]
	curBE := b.pairBW.cur[East][:n]
	curBS := b.pairBW.cur[South][:n]
	curBW := b.pairBW.cur[West][:n]
	for k := 0; k < n; k++ {
		var aN, aS, bN, bS uint64
		if k < n-w {
			aN = curN[k+w]
			bN = curBN[k+w]
		}
		if k >= w {
			aS = curS[k-w]
			bS = curBS[k-w]
		}
		aE := curE[k] << 1 & em
		aW := curW[k] >> 1 & wmk
		if aN|aS|aE|aW == 0 {
			continue
		}
		bE := curBE[k] << 1 & em
		bW := curBW[k] >> 1 & wmk
		in := interior[k]
		// pairOrder: South, East, West, North.
		done |= b.pairStep(k, aS&in, bS, South)
		done |= b.pairStep(k, aE&in, bE, East)
		done |= b.pairStep(k, aW&in, bW, West)
		done |= b.pairStep(k, aN&in, bN, North)
	}
	return done
}

// pairStep is one travel direction of movePairs at word k: error
// marking, hot termination with per-lane accounting, and pass-through
// with boundary provenance.
func (b *BatchMesh) pairStep(k int, mv, pb uint64, d Dir) (done uint64) {
	if mv == 0 {
		return 0
	}
	bg := b.bg
	wm := bg.wmask
	b.errOut[k] ^= mv
	hits := mv & b.hot[k]
	if hits != 0 {
		b.hot[k] &^= hits
		// A hot module terminated: cells here left the hot mask, so
		// their latched grows may now fire — re-evaluate the word.
		b.fireDirty[k>>6] |= 1 << (uint(k) & 63)
		col := k & wm
		for l := col * bg.perWord; l < bg.colEnd[col]; l++ {
			hl := hits & bg.laneBits[l]
			if hl == 0 {
				continue
			}
			nh := bits.OnesCount64(hl)
			b.laneHot[l] -= nh
			b.laneStats[l].Pairings += nh
			b.laneStats[l].BoundaryPairings += bits.OnesCount64(hl & pb)
			done |= uint64(1) << uint(l)
		}
	}
	pass := mv &^ hits
	b.pairW.nxt[d][k] |= pass
	b.pairW.nxtAny[k&wm] |= pass
	bp := pb & pass
	b.pairBW.nxt[d][k] |= bp
	b.pairBW.nxtAny[k&wm] |= bp
	return done
}

// fireComplete is planeState.fireIntermediates + completeHandshakes
// restricted to the dirty words the earlier phases marked this step.
// Both scans are event-driven:
//
//   - Fire eligibility at a word changes only when a grow latch lands
//     there (moveGrows marks fireDirty) or a hot module terminates
//     there (pairStep marks it) — fired bits and lane scrubs/resets only
//     shrink the eligible set, and a scrub or reset also clears the
//     lane's growFrom latches, so no unmarked word can newly fire.
//   - A handshake completes only when the module's last outstanding
//     grant is consumed (grantConsume marks hsDirty): a fresh fire
//     always creates pending request dirs of its own, so it can never
//     be ready in the step it fires, and sentPair/reqDirs updates only
//     remove readiness.
//
// Stale marks are harmless (the word re-evaluates to a no-op); the maps
// are consumed and cleared every step, so each event is paid once.
// Processing all fire words before all handshake words preserves the
// scalar kernel's two-sweep order; every update is word-local, so the
// sparse visit order within a sweep cannot change the outcome.
func (b *BatchMesh) fireComplete() {
	fd := b.fireDirty
	b.fireDirty = [4]uint64{}
	hd := b.hsDirty
	b.hsDirty = [4]uint64{}
	reqGrant := b.variant.ReqGrant
	for g := 0; g < 4; g++ {
		m := fd[g]
		for m != 0 {
			k := g<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			b.fireWord(k, reqGrant)
		}
	}
	if !reqGrant {
		return
	}
	for g := 0; g < 4; g++ {
		m := hd[g]
		for m != 0 {
			k := g<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			b.handshakeWord(k)
		}
	}
}

// fireWord is planeState.fireIntermediates at one plane word. Lanes
// mid-reset have empty growFrom latches, so they contribute nothing,
// matching the scalar kernel's blocked branch.
func (b *BatchMesh) fireWord(k int, reqGrant bool) {
	bg := b.bg
	wm := bg.wmask
	elig := bg.interior[k] &^ b.fired[k] &^ b.hot[k]
	if elig == 0 {
		return
	}
	gN, gE, gS, gW := b.growFrom[North][k], b.growFrom[East][k], b.growFrom[South][k], b.growFrom[West][k]
	cWE := elig & gW & gE
	rem := elig &^ cWE
	cNS := rem & gN & gS
	rem &^= cNS
	cNW := rem & gN & gW
	rem &^= cNW
	cNE := rem & gN & gE
	firedNew := cWE | cNS | cNW | cNE
	if firedNew == 0 {
		return
	}
	b.fired[k] |= firedNew
	setN := cNS | cNW | cNE
	setS := cNS
	setE := cWE | cNE
	setW := cWE | cNW
	b.reqDirs[North][k] |= setN
	b.reqDirs[South][k] |= setS
	b.reqDirs[East][k] |= setE
	b.reqDirs[West][k] |= setW
	if reqGrant {
		b.reqW.nxt[North][k] |= setN
		b.reqW.nxt[South][k] |= setS
		b.reqW.nxt[East][k] |= setE
		b.reqW.nxt[West][k] |= setW
		b.reqW.nxtAny[k&wm] |= firedNew
	} else {
		b.sentPair[k] |= firedNew
		b.errOut[k] ^= firedNew
		b.pairW.nxt[North][k] |= setN
		b.pairW.nxt[South][k] |= setS
		b.pairW.nxt[East][k] |= setE
		b.pairW.nxt[West][k] |= setW
		b.pairW.nxtAny[k&wm] |= firedNew
	}
}

// handshakeWord is planeState.completeHandshakes at one plane word.
func (b *BatchMesh) handshakeWord(k int) {
	bg := b.bg
	wm := bg.wmask
	rdN, rdE, rdS, rdW := b.reqDirs[North][k], b.reqDirs[East][k], b.reqDirs[South][k], b.reqDirs[West][k]
	pend := (rdN &^ b.grants[North][k]) |
		(rdE &^ b.grants[East][k]) |
		(rdS &^ b.grants[South][k]) |
		(rdW &^ b.grants[West][k])
	ready := (b.fired[k] &^ b.sentPair[k]) & bg.interior[k] &^ pend
	if ready == 0 {
		return
	}
	b.sentPair[k] |= ready
	b.errOut[k] ^= ready
	pN := ready & rdN
	pE := ready & rdE
	pS := ready & rdS
	pW := ready & rdW
	b.pairW.nxt[North][k] |= pN
	b.pairW.nxt[East][k] |= pE
	b.pairW.nxt[South][k] |= pS
	b.pairW.nxt[West][k] |= pW
	b.pairW.nxtAny[k&wm] |= pN | pE | pS | pW
}
