package hive

import (
	"fmt"
	"strings"

	"hivempi/internal/exec"
	"hivempi/internal/types"
)

// colInfo is one visible column of a relation during planning.
type colInfo struct {
	qualifier string // table alias ("" for computed columns)
	name      string
	kind      types.Kind
}

// relSchema is the ordered column list of a planning-time relation.
type relSchema []colInfo

// find resolves a possibly-qualified name to a column ordinal.
func (s relSchema) find(qualifier, name string) (int, error) {
	match := -1
	for i, c := range s {
		if c.name != name {
			continue
		}
		if qualifier != "" && c.qualifier != qualifier {
			continue
		}
		if match >= 0 {
			return 0, fmt.Errorf("hive: column %s is ambiguous", displayName(qualifier, name))
		}
		match = i
	}
	if match < 0 {
		return 0, fmt.Errorf("hive: column %s not found", displayName(qualifier, name))
	}
	return match, nil
}

func displayName(q, n string) string {
	if q == "" {
		return n
	}
	return q + "." + n
}

// toSchema converts to a storage schema (for temp materialization).
func (s relSchema) toSchema() *types.Schema {
	cols := make([]types.Column, len(s))
	for i, c := range s {
		name := c.name
		if name == "" {
			name = fmt.Sprintf("_c%d", i)
		}
		cols[i] = types.Col(name, c.kind)
	}
	return &types.Schema{Columns: cols}
}

// resolve lowers an AST node into an exec.Expr over the schema,
// returning the inferred result kind.
func resolve(n Node, sch relSchema) (exec.Expr, types.Kind, error) {
	switch e := n.(type) {
	case *Ident:
		idx, err := sch.find(e.Qualifier, e.Name)
		if err != nil {
			return nil, 0, err
		}
		return &exec.ColRef{Idx: idx, Name: displayName(e.Qualifier, e.Name)}, sch[idx].kind, nil
	case *Lit:
		return &exec.Const{D: e.D}, e.D.K, nil
	case *NegExpr:
		inner, k, err := resolve(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		zero := exec.Expr(&exec.Const{D: types.Int(0)})
		return &exec.BinOp{Op: exec.OpSub, L: zero, R: inner}, k, nil
	case *BinExpr:
		l, lk, err := resolve(e.L, sch)
		if err != nil {
			return nil, 0, err
		}
		r, rk, err := resolve(e.R, sch)
		if err != nil {
			return nil, 0, err
		}
		var op exec.BinOpKind
		k := promoteNumeric(lk, rk)
		switch e.Op {
		case "+":
			op = exec.OpAdd
		case "-":
			op = exec.OpSub
		case "*":
			op = exec.OpMul
		case "/":
			op, k = exec.OpDiv, types.KindFloat
		case "%":
			op, k = exec.OpMod, types.KindInt
		default:
			return nil, 0, fmt.Errorf("hive: unknown operator %q", e.Op)
		}
		return &exec.BinOp{Op: op, L: l, R: r}, k, nil
	case *CmpExpr:
		l, _, err := resolve(e.L, sch)
		if err != nil {
			return nil, 0, err
		}
		r, _, err := resolve(e.R, sch)
		if err != nil {
			return nil, 0, err
		}
		var op exec.CmpOpKind
		switch e.Op {
		case "=":
			op = exec.CmpEQ
		case "<>":
			op = exec.CmpNE
		case "<":
			op = exec.CmpLT
		case "<=":
			op = exec.CmpLE
		case ">":
			op = exec.CmpGT
		case ">=":
			op = exec.CmpGE
		default:
			return nil, 0, fmt.Errorf("hive: unknown comparison %q", e.Op)
		}
		return &exec.Cmp{Op: op, L: l, R: r}, types.KindBool, nil
	case *LogicExpr:
		l, _, err := resolve(e.L, sch)
		if err != nil {
			return nil, 0, err
		}
		switch e.Op {
		case "not":
			return &exec.Logic{Op: exec.LogicNot, L: l}, types.KindBool, nil
		case "and", "or":
			r, _, err := resolve(e.R, sch)
			if err != nil {
				return nil, 0, err
			}
			op := exec.LogicAnd
			if e.Op == "or" {
				op = exec.LogicOr
			}
			return &exec.Logic{Op: op, L: l, R: r}, types.KindBool, nil
		default:
			return nil, 0, fmt.Errorf("hive: unknown logic op %q", e.Op)
		}
	case *LikeExpr:
		inner, _, err := resolve(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		return &exec.Like{E: inner, Pattern: e.Pattern, Negate: e.Negate}, types.KindBool, nil
	case *InExpr:
		inner, _, err := resolve(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		list := make([]exec.Expr, len(e.List))
		for i, le := range e.List {
			r, _, err := resolve(le, sch)
			if err != nil {
				return nil, 0, err
			}
			list[i] = r
		}
		return &exec.In{E: inner, List: list, Negate: e.Negate}, types.KindBool, nil
	case *BetweenExpr:
		inner, _, err := resolve(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		lo, _, err := resolve(e.Lo, sch)
		if err != nil {
			return nil, 0, err
		}
		hi, _, err := resolve(e.Hi, sch)
		if err != nil {
			return nil, 0, err
		}
		return &exec.Between{E: inner, Lo: lo, Hi: hi, Negate: e.Negate}, types.KindBool, nil
	case *IsNullExpr:
		inner, _, err := resolve(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		return &exec.IsNull{E: inner, Negate: e.Negate}, types.KindBool, nil
	case *CaseExpr:
		out := &exec.Case{}
		var k types.Kind
		for _, w := range e.Whens {
			cond, _, err := resolve(w.Cond, sch)
			if err != nil {
				return nil, 0, err
			}
			val, vk, err := resolve(w.Value, sch)
			if err != nil {
				return nil, 0, err
			}
			if k == types.KindNull {
				k = vk
			}
			out.Whens = append(out.Whens, exec.CaseWhen{Cond: cond, Value: val})
		}
		if e.Else != nil {
			ee, ek, err := resolve(e.Else, sch)
			if err != nil {
				return nil, 0, err
			}
			if k == types.KindNull {
				k = ek
			}
			out.Else = ee
		}
		return out, k, nil
	case *CastExpr:
		inner, _, err := resolve(e.E, sch)
		if err != nil {
			return nil, 0, err
		}
		k, err := types.ParseKind(e.To)
		if err != nil {
			return nil, 0, err
		}
		return &exec.Cast{E: inner, To: k}, k, nil
	case *FuncExpr:
		if aggNames[e.Name] {
			return nil, 0, fmt.Errorf("hive: aggregate %s() in a non-aggregate context", e.Name)
		}
		args := make([]exec.Expr, len(e.Args))
		var argKinds []types.Kind
		for i, a := range e.Args {
			r, k, err := resolve(a, sch)
			if err != nil {
				return nil, 0, err
			}
			args[i] = r
			argKinds = append(argKinds, k)
		}
		return &exec.Func{Name: e.Name, Args: args}, funcKind(e.Name, argKinds), nil
	default:
		return nil, 0, fmt.Errorf("hive: cannot resolve %T", n)
	}
}

func promoteNumeric(a, b types.Kind) types.Kind {
	if a == types.KindFloat || b == types.KindFloat {
		return types.KindFloat
	}
	return types.KindInt
}

func funcKind(name string, args []types.Kind) types.Kind {
	switch name {
	case "year", "month", "day", "length", "floor", "ceil":
		return types.KindInt
	case "substr", "substring", "upper", "lower", "concat":
		return types.KindString
	case "round":
		return types.KindFloat
	case "to_date", "date_add":
		return types.KindDate
	case "if":
		if len(args) > 0 {
			args = args[1:] // typed by its THEN and ELSE values, not its condition
		}
		fallthrough
	case "abs", "coalesce":
		for _, k := range args {
			if k != types.KindNull {
				return k
			}
		}
		return types.KindNull
	default:
		return types.KindFloat
	}
}

// nodeKey renders an AST node canonically so structurally identical
// expressions (e.g. a GROUP BY key repeated in the SELECT list) can be
// matched during aggregate rewriting.
func nodeKey(n Node) string {
	switch e := n.(type) {
	case nil:
		return "<nil>"
	case *Ident:
		return "id:" + e.Qualifier + "." + e.Name
	case *Lit:
		return "lit:" + e.D.Text() + ":" + e.D.K.String()
	case *NegExpr:
		return "neg(" + nodeKey(e.E) + ")"
	case *BinExpr:
		return "bin:" + e.Op + "(" + nodeKey(e.L) + "," + nodeKey(e.R) + ")"
	case *CmpExpr:
		return "cmp:" + e.Op + "(" + nodeKey(e.L) + "," + nodeKey(e.R) + ")"
	case *LogicExpr:
		return "logic:" + e.Op + "(" + nodeKey(e.L) + "," + nodeKey(e.R) + ")"
	case *LikeExpr:
		return fmt.Sprintf("like:%v:%s(%s)", e.Negate, e.Pattern, nodeKey(e.E))
	case *InExpr:
		parts := make([]string, len(e.List))
		for i, le := range e.List {
			parts[i] = nodeKey(le)
		}
		return fmt.Sprintf("in:%v(%s;%s)", e.Negate, nodeKey(e.E), strings.Join(parts, ","))
	case *BetweenExpr:
		return fmt.Sprintf("btw:%v(%s,%s,%s)", e.Negate, nodeKey(e.E), nodeKey(e.Lo), nodeKey(e.Hi))
	case *IsNullExpr:
		return fmt.Sprintf("isnull:%v(%s)", e.Negate, nodeKey(e.E))
	case *CaseExpr:
		var sb strings.Builder
		sb.WriteString("case(")
		for _, w := range e.Whens {
			sb.WriteString(nodeKey(w.Cond) + "->" + nodeKey(w.Value) + ";")
		}
		sb.WriteString("else:" + nodeKey(e.Else) + ")")
		return sb.String()
	case *CastExpr:
		return "cast:" + e.To + "(" + nodeKey(e.E) + ")"
	case *FuncExpr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = nodeKey(a)
		}
		return fmt.Sprintf("fn:%s:%v:%v(%s)", e.Name, e.Star, e.Distinct, strings.Join(parts, ","))
	default:
		return fmt.Sprintf("?%T", n)
	}
}

// collectAggs gathers the distinct aggregate calls in a node tree.
func collectAggs(n Node, into *[]*FuncExpr, seen map[string]bool) {
	switch e := n.(type) {
	case nil:
	case *FuncExpr:
		if aggNames[e.Name] {
			k := nodeKey(e)
			if !seen[k] {
				seen[k] = true
				*into = append(*into, e)
			}
			return // no nested aggregates
		}
		for _, a := range e.Args {
			collectAggs(a, into, seen)
		}
	case *NegExpr:
		collectAggs(e.E, into, seen)
	case *BinExpr:
		collectAggs(e.L, into, seen)
		collectAggs(e.R, into, seen)
	case *CmpExpr:
		collectAggs(e.L, into, seen)
		collectAggs(e.R, into, seen)
	case *LogicExpr:
		collectAggs(e.L, into, seen)
		collectAggs(e.R, into, seen)
	case *LikeExpr:
		collectAggs(e.E, into, seen)
	case *InExpr:
		collectAggs(e.E, into, seen)
		for _, le := range e.List {
			collectAggs(le, into, seen)
		}
	case *BetweenExpr:
		collectAggs(e.E, into, seen)
		collectAggs(e.Lo, into, seen)
		collectAggs(e.Hi, into, seen)
	case *IsNullExpr:
		collectAggs(e.E, into, seen)
	case *CaseExpr:
		for _, w := range e.Whens {
			collectAggs(w.Cond, into, seen)
			collectAggs(w.Value, into, seen)
		}
		collectAggs(e.Else, into, seen)
	case *CastExpr:
		collectAggs(e.E, into, seen)
	}
}

// rewriteForAgg replaces aggregate calls and group-key expressions with
// references to the post-aggregation schema ("_gk<i>" / "_agg<i>"
// synthetic columns), leaving everything else intact.
func rewriteForAgg(n Node, groupKeys map[string]int, aggSlots map[string]int) Node {
	if n == nil {
		return nil
	}
	if idx, ok := groupKeys[nodeKey(n)]; ok {
		return &Ident{Name: fmt.Sprintf("_gk%d", idx)}
	}
	if idx, ok := aggSlots[nodeKey(n)]; ok {
		return &Ident{Name: fmt.Sprintf("_agg%d", idx)}
	}
	switch e := n.(type) {
	case *NegExpr:
		return &NegExpr{E: rewriteForAgg(e.E, groupKeys, aggSlots)}
	case *BinExpr:
		return &BinExpr{Op: e.Op,
			L: rewriteForAgg(e.L, groupKeys, aggSlots),
			R: rewriteForAgg(e.R, groupKeys, aggSlots)}
	case *CmpExpr:
		return &CmpExpr{Op: e.Op,
			L: rewriteForAgg(e.L, groupKeys, aggSlots),
			R: rewriteForAgg(e.R, groupKeys, aggSlots)}
	case *LogicExpr:
		out := &LogicExpr{Op: e.Op, L: rewriteForAgg(e.L, groupKeys, aggSlots)}
		if e.R != nil {
			out.R = rewriteForAgg(e.R, groupKeys, aggSlots)
		}
		return out
	case *LikeExpr:
		return &LikeExpr{E: rewriteForAgg(e.E, groupKeys, aggSlots), Pattern: e.Pattern, Negate: e.Negate}
	case *InExpr:
		out := &InExpr{E: rewriteForAgg(e.E, groupKeys, aggSlots), Negate: e.Negate}
		for _, le := range e.List {
			out.List = append(out.List, rewriteForAgg(le, groupKeys, aggSlots))
		}
		return out
	case *BetweenExpr:
		return &BetweenExpr{
			E:      rewriteForAgg(e.E, groupKeys, aggSlots),
			Lo:     rewriteForAgg(e.Lo, groupKeys, aggSlots),
			Hi:     rewriteForAgg(e.Hi, groupKeys, aggSlots),
			Negate: e.Negate,
		}
	case *IsNullExpr:
		return &IsNullExpr{E: rewriteForAgg(e.E, groupKeys, aggSlots), Negate: e.Negate}
	case *CaseExpr:
		out := &CaseExpr{}
		for _, w := range e.Whens {
			out.Whens = append(out.Whens, WhenClause{
				Cond:  rewriteForAgg(w.Cond, groupKeys, aggSlots),
				Value: rewriteForAgg(w.Value, groupKeys, aggSlots),
			})
		}
		if e.Else != nil {
			out.Else = rewriteForAgg(e.Else, groupKeys, aggSlots)
		}
		return out
	case *CastExpr:
		return &CastExpr{E: rewriteForAgg(e.E, groupKeys, aggSlots), To: e.To}
	case *FuncExpr:
		out := &FuncExpr{Name: e.Name, Star: e.Star, Distinct: e.Distinct}
		for _, a := range e.Args {
			out.Args = append(out.Args, rewriteForAgg(a, groupKeys, aggSlots))
		}
		return out
	default:
		return n
	}
}

// identsOf collects every column reference in the node tree.
func identsOf(n Node, into *[]*Ident) {
	switch e := n.(type) {
	case nil:
	case *Ident:
		*into = append(*into, e)
	case *NegExpr:
		identsOf(e.E, into)
	case *BinExpr:
		identsOf(e.L, into)
		identsOf(e.R, into)
	case *CmpExpr:
		identsOf(e.L, into)
		identsOf(e.R, into)
	case *LogicExpr:
		identsOf(e.L, into)
		identsOf(e.R, into)
	case *LikeExpr:
		identsOf(e.E, into)
	case *InExpr:
		identsOf(e.E, into)
		for _, le := range e.List {
			identsOf(le, into)
		}
	case *BetweenExpr:
		identsOf(e.E, into)
		identsOf(e.Lo, into)
		identsOf(e.Hi, into)
	case *IsNullExpr:
		identsOf(e.E, into)
	case *CaseExpr:
		for _, w := range e.Whens {
			identsOf(w.Cond, into)
			identsOf(w.Value, into)
		}
		identsOf(e.Else, into)
	case *CastExpr:
		identsOf(e.E, into)
	case *FuncExpr:
		for _, a := range e.Args {
			identsOf(a, into)
		}
	}
}

// splitConjuncts flattens a WHERE tree into AND-ed conjuncts.
func splitConjuncts(n Node, into *[]Node) {
	if n == nil {
		return
	}
	if l, ok := n.(*LogicExpr); ok && l.Op == "and" {
		splitConjuncts(l.L, into)
		splitConjuncts(l.R, into)
		return
	}
	*into = append(*into, n)
}

// aggSpecFor converts a parsed aggregate call into an AggSpec plus the
// resolved argument expression (nil for COUNT(*)).
func aggSpecFor(f *FuncExpr, sch relSchema) (exec.AggSpec, types.Kind, error) {
	var kind exec.AggKind
	switch f.Name {
	case "sum":
		kind = exec.AggSum
	case "avg":
		kind = exec.AggAvg
	case "min":
		kind = exec.AggMin
	case "max":
		kind = exec.AggMax
	case "count":
		if f.Star {
			return exec.AggSpec{Kind: exec.AggCountStar}, types.KindInt, nil
		}
		kind = exec.AggCount
	default:
		return exec.AggSpec{}, 0, fmt.Errorf("hive: unknown aggregate %q", f.Name)
	}
	if len(f.Args) != 1 {
		return exec.AggSpec{}, 0, fmt.Errorf("hive: %s() wants 1 argument", f.Name)
	}
	arg, argKind, err := resolve(f.Args[0], sch)
	if err != nil {
		return exec.AggSpec{}, 0, err
	}
	var outKind types.Kind
	switch kind {
	case exec.AggCount:
		outKind = types.KindInt
	case exec.AggAvg:
		outKind = types.KindFloat
	case exec.AggSum:
		outKind = argKind
		if argKind != types.KindFloat {
			outKind = types.KindInt
		}
	default:
		outKind = argKind
	}
	return exec.AggSpec{Kind: kind, Arg: arg, Distinct: f.Distinct}, outKind, nil
}
