package exec

// Expression kernels. compileKernel walks an Expr tree once per task
// and produces a closure tree evaluating whole column batches,
// replacing per-row Eval interface dispatch with typed per-kind loops.
// Expr.Eval remains the scalar reference (and the reduce side's
// evaluator): every node has a universal fallback (materialize the
// row, call Eval), so compilation never fails, and mixed-kind lanes
// inside fast-path nodes route through the same scalar helpers Eval
// uses (binOpDatums, cmpDatums, castDatum), keeping a kernel identical
// to Eval by construction rather than by parallel implementations.

import (
	"fmt"

	"hivempi/internal/types"
	"hivempi/internal/vec"
)

// kernel evaluates one expression over a batch, filling out with one
// value per batch row. The out vector is owned by the caller and Reset
// by the kernel each call.
type kernel func(b *vec.Batch, out *vec.Vector) error

// isI64Kind reports kinds stored in the I64 payload — the same set
// BinOp treats as "intish".
func isI64Kind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindBool || k == types.KindDate
}

func isNumKind(k types.Kind) bool { return isI64Kind(k) || k == types.KindFloat }

// f64At reads a numeric lane with Datum.Float semantics.
func f64At(v *vec.Vector, i int) float64 {
	if v.Kind == types.KindFloat {
		return v.F64[i]
	}
	return float64(v.I64[i])
}

// i64At reads a numeric lane with Datum.Int semantics (floats truncate).
func i64At(v *vec.Vector, i int) int64 {
	if v.Kind == types.KindFloat {
		return int64(v.F64[i])
	}
	return v.I64[i]
}

// b01 stores a bool lane.
func b01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// laneBool applies Datum.Bool to a non-null lane: true only for a bool
// kind holding a non-zero value.
func laneBool(v *vec.Vector, i int) bool {
	if v.Null(i) {
		return false
	}
	if v.Kind == types.KindBool {
		return v.I64[i] != 0
	}
	return v.Datum(i).Bool()
}

// compileKernel compiles e into a batch kernel. It always succeeds:
// nodes without a batch form fall back to per-row Eval over a
// materialized scratch row.
func compileKernel(e Expr) kernel {
	switch n := e.(type) {
	case *ColRef:
		return compileColRef(n)
	case *Const:
		return compileConst(n)
	case *BinOp:
		return compileBinOp(n)
	case *Cmp:
		return compileCmp(n)
	case *Logic:
		return compileLogic(n)
	case *IsNull:
		return compileIsNull(n)
	case *In:
		return compileIn(n)
	case *Between:
		return compileBetween(n)
	case *Like:
		return compileLike(n)
	case *Case:
		return compileCase(n)
	case *Func:
		return compileFunc(n)
	case *Cast:
		return compileCast(n)
	default:
		return rowFallbackKernel(e)
	}
}

// rowFallbackKernel is the universal kernel: materialize each batch row
// into a scratch types.Row and delegate to the node's own Eval. Slow,
// but guarantees coverage and bit-identity for anything not fast-pathed.
func rowFallbackKernel(e Expr) kernel {
	var scratch types.Row
	return func(b *vec.Batch, out *vec.Vector) error {
		out.Reset(vec.KindAny, b.N)
		for i := 0; i < b.N; i++ {
			scratch = b.Row(i, scratch)
			d, err := e.Eval(scratch)
			if err != nil {
				return err
			}
			out.SetDatum(i, d)
		}
		return nil
	}
}

func compileColRef(n *ColRef) kernel {
	idx, name := n.Idx, n.Name
	return func(b *vec.Batch, out *vec.Vector) error {
		if idx < 0 || idx >= len(b.Cols) {
			return fmt.Errorf("exec: column %d (%s) out of range for %d-column row",
				idx, name, len(b.Cols))
		}
		out.CopyFrom(b.Cols[idx], b.N)
		return nil
	}
}

func compileConst(n *Const) kernel {
	d := n.D
	return func(b *vec.Batch, out *vec.Vector) error {
		if d.IsNull() {
			out.Reset(types.KindNull, b.N)
			return nil
		}
		out.Reset(d.K, b.N)
		switch d.K {
		case types.KindInt, types.KindBool, types.KindDate:
			for i := 0; i < b.N; i++ {
				out.I64[i] = d.I
			}
		case types.KindFloat:
			for i := 0; i < b.N; i++ {
				out.F64[i] = d.F
			}
		case types.KindString:
			for i := 0; i < b.N; i++ {
				out.Str[i] = d.S
			}
		}
		return nil
	}
}

func compileBinOp(n *BinOp) kernel {
	lk, rk := compileKernel(n.L), compileKernel(n.R)
	op := n.Op
	var lv, rv vec.Vector
	knownOp := op == OpAdd || op == OpSub || op == OpMul || op == OpDiv || op == OpMod
	return func(b *vec.Batch, out *vec.Vector) error {
		if err := lk(b, &lv); err != nil {
			return err
		}
		if err := rk(b, &rv); err != nil {
			return err
		}
		rows := b.N
		if knownOp && isNumKind(lv.Kind) && isNumKind(rv.Kind) {
			switch {
			case op == OpDiv:
				out.Reset(types.KindFloat, rows)
				out.CopyNullsFrom(&lv, rows)
				out.OrNullsFrom(&rv, rows)
				for i := 0; i < rows; i++ {
					den := f64At(&rv, i)
					if den == 0 {
						out.SetNull(i)
						continue
					}
					out.F64[i] = f64At(&lv, i) / den
				}
			case op == OpMod:
				out.Reset(types.KindInt, rows)
				out.CopyNullsFrom(&lv, rows)
				out.OrNullsFrom(&rv, rows)
				for i := 0; i < rows; i++ {
					den := i64At(&rv, i)
					if den == 0 {
						out.SetNull(i)
						continue
					}
					out.I64[i] = i64At(&lv, i) % den
				}
			case isI64Kind(lv.Kind) && isI64Kind(rv.Kind):
				out.Reset(types.KindInt, rows)
				out.CopyNullsFrom(&lv, rows)
				out.OrNullsFrom(&rv, rows)
				switch op {
				case OpAdd:
					for i := 0; i < rows; i++ {
						out.I64[i] = lv.I64[i] + rv.I64[i]
					}
				case OpSub:
					for i := 0; i < rows; i++ {
						out.I64[i] = lv.I64[i] - rv.I64[i]
					}
				case OpMul:
					for i := 0; i < rows; i++ {
						out.I64[i] = lv.I64[i] * rv.I64[i]
					}
				}
			default:
				out.Reset(types.KindFloat, rows)
				out.CopyNullsFrom(&lv, rows)
				out.OrNullsFrom(&rv, rows)
				switch op {
				case OpAdd:
					for i := 0; i < rows; i++ {
						out.F64[i] = f64At(&lv, i) + f64At(&rv, i)
					}
				case OpSub:
					for i := 0; i < rows; i++ {
						out.F64[i] = f64At(&lv, i) - f64At(&rv, i)
					}
				case OpMul:
					for i := 0; i < rows; i++ {
						out.F64[i] = f64At(&lv, i) * f64At(&rv, i)
					}
				}
			}
			return nil
		}
		out.Reset(vec.KindAny, rows)
		for i := 0; i < rows; i++ {
			d, err := binOpDatums(op, lv.Datum(i), rv.Datum(i))
			if err != nil {
				return err
			}
			out.SetDatum(i, d)
		}
		return nil
	}
}

func compileCmp(n *Cmp) kernel {
	lk, rk := compileKernel(n.L), compileKernel(n.R)
	op := n.Op
	knownOp := op >= CmpEQ && op <= CmpGE
	var lv, rv vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		if err := lk(b, &lv); err != nil {
			return err
		}
		if err := rk(b, &rv); err != nil {
			return err
		}
		rows := b.N
		out.Reset(types.KindBool, rows)
		switch {
		case knownOp && isI64Kind(lv.Kind) && isI64Kind(rv.Kind):
			out.CopyNullsFrom(&lv, rows)
			out.OrNullsFrom(&rv, rows)
			for i := 0; i < rows; i++ {
				c := 0
				switch {
				case lv.I64[i] < rv.I64[i]:
					c = -1
				case lv.I64[i] > rv.I64[i]:
					c = 1
				}
				ok, _ := cmpVerdict(op, c)
				out.I64[i] = b01(ok)
			}
		case knownOp && isNumKind(lv.Kind) && isNumKind(rv.Kind):
			out.CopyNullsFrom(&lv, rows)
			out.OrNullsFrom(&rv, rows)
			for i := 0; i < rows; i++ {
				lf, rf := f64At(&lv, i), f64At(&rv, i)
				c := 0
				switch {
				case lf < rf:
					c = -1
				case lf > rf:
					c = 1
				}
				ok, _ := cmpVerdict(op, c)
				out.I64[i] = b01(ok)
			}
		case knownOp && lv.Kind == types.KindString && rv.Kind == types.KindString:
			out.CopyNullsFrom(&lv, rows)
			out.OrNullsFrom(&rv, rows)
			for i := 0; i < rows; i++ {
				c := 0
				switch {
				case lv.Str[i] < rv.Str[i]:
					c = -1
				case lv.Str[i] > rv.Str[i]:
					c = 1
				}
				ok, _ := cmpVerdict(op, c)
				out.I64[i] = b01(ok)
			}
		default:
			for i := 0; i < rows; i++ {
				d, err := cmpDatums(op, lv.Datum(i), rv.Datum(i))
				if err != nil {
					return err
				}
				out.SetDatum(i, d)
			}
		}
		return nil
	}
}

func compileLogic(n *Logic) kernel {
	if n.Op == LogicNot {
		ck := compileKernel(n.L)
		var cv vec.Vector
		return func(b *vec.Batch, out *vec.Vector) error {
			if err := ck(b, &cv); err != nil {
				return err
			}
			rows := b.N
			out.Reset(types.KindBool, rows)
			out.CopyNullsFrom(&cv, rows)
			if cv.Kind == types.KindBool {
				for i := 0; i < rows; i++ {
					out.I64[i] = 1 - b01(cv.I64[i] != 0)
				}
			} else {
				for i := 0; i < rows; i++ {
					if !cv.Null(i) {
						out.I64[i] = 1 - b01(cv.Datum(i).Bool())
					}
				}
			}
			return nil
		}
	}
	if n.Op != LogicAnd && n.Op != LogicOr {
		return rowFallbackKernel(n)
	}
	lk, rk := compileKernel(n.L), compileKernel(n.R)
	isAnd := n.Op == LogicAnd
	var lv, rv vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		// Eval evaluates both operands before combining (no error
		// short-circuit), so whole-batch evaluation matches exactly.
		if err := lk(b, &lv); err != nil {
			return err
		}
		if err := rk(b, &rv); err != nil {
			return err
		}
		rows := b.N
		out.Reset(types.KindBool, rows)
		for i := 0; i < rows; i++ {
			aN, bN := lv.Null(i), rv.Null(i)
			var aV, bV bool
			if !aN {
				aV = laneBool(&lv, i)
			}
			if !bN {
				bV = laneBool(&rv, i)
			}
			if isAnd {
				switch {
				case (!aN && !aV) || (!bN && !bV):
					out.I64[i] = 0
				case aN || bN:
					out.SetNull(i)
				default:
					out.I64[i] = 1
				}
			} else {
				switch {
				case (!aN && aV) || (!bN && bV):
					out.I64[i] = 1
				case aN || bN:
					out.SetNull(i)
				default:
					out.I64[i] = 0
				}
			}
		}
		return nil
	}
}

func compileIsNull(n *IsNull) kernel {
	ck := compileKernel(n.E)
	negate := n.Negate
	var cv vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		if err := ck(b, &cv); err != nil {
			return err
		}
		rows := b.N
		out.Reset(types.KindBool, rows)
		for i := 0; i < rows; i++ {
			out.I64[i] = b01(cv.Null(i) != negate)
		}
		return nil
	}
}

func compileIn(n *In) kernel {
	// Fast path only when every list element is a literal (the common
	// shape); arbitrary list expressions keep Eval's lazy per-row
	// evaluation order via the fallback.
	consts := make([]types.Datum, 0, len(n.List))
	for _, le := range n.List {
		c, ok := le.(*Const)
		if !ok {
			return rowFallbackKernel(n)
		}
		consts = append(consts, c.D)
	}
	ek := compileKernel(n.E)
	negate := n.Negate
	var ev vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		if err := ek(b, &ev); err != nil {
			return err
		}
		rows := b.N
		out.Reset(types.KindBool, rows)
		for i := 0; i < rows; i++ {
			if ev.Null(i) {
				out.SetNull(i)
				continue
			}
			d := ev.Datum(i)
			hit := false
			for _, c := range consts {
				if types.Equal(d, c) {
					hit = true
					break
				}
			}
			out.I64[i] = b01(hit != negate)
		}
		return nil
	}
}

func compileBetween(n *Between) kernel {
	ek, lok, hik := compileKernel(n.E), compileKernel(n.Lo), compileKernel(n.Hi)
	negate := n.Negate
	var ev, lov, hiv vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		// Eval evaluates all three operands before the null check.
		if err := ek(b, &ev); err != nil {
			return err
		}
		if err := lok(b, &lov); err != nil {
			return err
		}
		if err := hik(b, &hiv); err != nil {
			return err
		}
		rows := b.N
		out.Reset(types.KindBool, rows)
		out.CopyNullsFrom(&ev, rows)
		out.OrNullsFrom(&lov, rows)
		out.OrNullsFrom(&hiv, rows)
		switch {
		case isI64Kind(ev.Kind) && isI64Kind(lov.Kind) && isI64Kind(hiv.Kind):
			for i := 0; i < rows; i++ {
				in := ev.I64[i] >= lov.I64[i] && ev.I64[i] <= hiv.I64[i]
				out.I64[i] = b01(in != negate)
			}
		case isNumKind(ev.Kind) && isNumKind(lov.Kind) && isNumKind(hiv.Kind):
			for i := 0; i < rows; i++ {
				d := f64At(&ev, i)
				in := d >= f64At(&lov, i) && d <= f64At(&hiv, i)
				out.I64[i] = b01(in != negate)
			}
		case ev.Kind == types.KindString && lov.Kind == types.KindString && hiv.Kind == types.KindString:
			for i := 0; i < rows; i++ {
				in := ev.Str[i] >= lov.Str[i] && ev.Str[i] <= hiv.Str[i]
				out.I64[i] = b01(in != negate)
			}
		default:
			for i := 0; i < rows; i++ {
				if out.Null(i) {
					continue
				}
				d := ev.Datum(i)
				in := types.Compare(d, lov.Datum(i)) >= 0 && types.Compare(d, hiv.Datum(i)) <= 0
				out.I64[i] = b01(in != negate)
			}
		}
		return nil
	}
}

func compileLike(n *Like) kernel {
	ek := compileKernel(n.E)
	pat, negate := n.Pattern, n.Negate
	var ev vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		if err := ek(b, &ev); err != nil {
			return err
		}
		rows := b.N
		out.Reset(types.KindBool, rows)
		out.CopyNullsFrom(&ev, rows)
		if ev.Kind == types.KindString {
			for i := 0; i < rows; i++ {
				out.I64[i] = b01(likeMatch(ev.Str[i], pat) != negate)
			}
			return nil
		}
		for i := 0; i < rows; i++ {
			if !ev.Null(i) {
				out.I64[i] = b01(likeMatch(ev.Datum(i).Str(), pat) != negate)
			}
		}
		return nil
	}
}

// compileCase evaluates each arm's condition only over the rows still
// unmatched (gathered into a sub-batch) and each arm's value only over
// the rows that matched it, preserving Eval's lazy-arm error
// semantics; results scatter back into the output by original row
// index.
func compileCase(n *Case) kernel {
	condKs := make([]kernel, len(n.Whens))
	valKs := make([]kernel, len(n.Whens))
	for i, w := range n.Whens {
		condKs[i] = compileKernel(w.Cond)
		valKs[i] = compileKernel(w.Value)
	}
	var elseK kernel
	if n.Else != nil {
		elseK = compileKernel(n.Else)
	}
	var condV, valV vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		rows := b.N
		out.Reset(vec.KindAny, rows)
		remaining := make([]int, rows)
		for i := range remaining {
			remaining[i] = i
		}
		runArm := func(sel []int, k kernel, into *vec.Vector) error {
			sub := gatherBatch(b, sel)
			err := k(sub, into)
			vec.Put(sub)
			return err
		}
		for arm := range condKs {
			if len(remaining) == 0 {
				break
			}
			if err := runArm(remaining, condKs[arm], &condV); err != nil {
				return err
			}
			matched := remaining[:0:0]
			rest := remaining[:0]
			for j, rowIdx := range remaining {
				if laneBool(&condV, j) {
					matched = append(matched, rowIdx)
				} else {
					rest = append(rest, rowIdx)
				}
			}
			if len(matched) > 0 {
				if err := runArm(matched, valKs[arm], &valV); err != nil {
					return err
				}
				for j, rowIdx := range matched {
					out.SetDatum(rowIdx, valV.Datum(j))
				}
			}
			remaining = rest
		}
		if len(remaining) > 0 {
			if elseK == nil {
				for _, rowIdx := range remaining {
					out.SetNull(rowIdx)
				}
			} else {
				if err := runArm(remaining, elseK, &valV); err != nil {
					return err
				}
				for j, rowIdx := range remaining {
					out.SetDatum(rowIdx, valV.Datum(j))
				}
			}
		}
		return nil
	}
}

// gatherBatch builds a pooled datum-mode sub-batch holding the selected
// rows of b. Callers vec.Put it when done.
func gatherBatch(b *vec.Batch, sel []int) *vec.Batch {
	sub := vec.Get(len(b.Cols))
	for c, v := range b.Cols {
		sc := sub.Cols[c]
		sc.Reset(vec.KindAny, len(sel))
		for j, rowIdx := range sel {
			sc.SetDatum(j, v.Datum(rowIdx))
		}
	}
	sub.N = len(sel)
	return sub
}

func compileFunc(n *Func) kernel {
	argKs := make([]kernel, len(n.Args))
	for i, a := range n.Args {
		argKs[i] = compileKernel(a)
	}
	name := n.Name
	argVs := make([]vec.Vector, len(n.Args))
	args := make([]types.Datum, len(n.Args))
	return func(b *vec.Batch, out *vec.Vector) error {
		// Eval evaluates every argument, then the builtin.
		for i, k := range argKs {
			if err := k(b, &argVs[i]); err != nil {
				return err
			}
		}
		rows := b.N
		out.Reset(vec.KindAny, rows)
		for i := 0; i < rows; i++ {
			for j := range argVs {
				args[j] = argVs[j].Datum(i)
			}
			d, err := evalBuiltin(name, args)
			if err != nil {
				return err
			}
			out.SetDatum(i, d)
		}
		return nil
	}
}

func compileCast(n *Cast) kernel {
	ck := compileKernel(n.E)
	to := n.To
	var cv vec.Vector
	return func(b *vec.Batch, out *vec.Vector) error {
		if err := ck(b, &cv); err != nil {
			return err
		}
		rows := b.N
		switch {
		case to == types.KindInt && isNumKind(cv.Kind):
			out.Reset(types.KindInt, rows)
			out.CopyNullsFrom(&cv, rows)
			for i := 0; i < rows; i++ {
				out.I64[i] = i64At(&cv, i)
			}
		case to == types.KindFloat && isNumKind(cv.Kind):
			out.Reset(types.KindFloat, rows)
			out.CopyNullsFrom(&cv, rows)
			for i := 0; i < rows; i++ {
				out.F64[i] = f64At(&cv, i)
			}
		default:
			out.Reset(vec.KindAny, rows)
			for i := 0; i < rows; i++ {
				d, err := castDatum(to, cv.Datum(i))
				if err != nil {
					return err
				}
				out.SetDatum(i, d)
			}
		}
		return nil
	}
}
