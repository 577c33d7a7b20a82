// Package exec contains the engine-independent execution layer of the
// warehouse: scalar expressions, aggregate functions, the physical plan
// specs produced by the compiler, and the runtime operators that both
// execution engines (Hadoop MapReduce and DataMPI) drive. This mirrors
// the paper's design principle of keeping Hive's operator definitions
// framework-independent so only the task runner differs (§IV-A).
package exec

import (
	"fmt"
	"strings"
	"time"

	"hivempi/internal/types"
)

// Expr is a scalar expression evaluated over one input row.
type Expr interface {
	Eval(row types.Row) (types.Datum, error)
	String() string
}

// ColRef reads column Idx of the input row.
type ColRef struct {
	Idx  int
	Name string
}

var _ Expr = (*ColRef)(nil)

// Eval implements Expr.
func (c *ColRef) Eval(row types.Row) (types.Datum, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return types.Datum{}, fmt.Errorf("exec: column %d (%s) out of range for %d-column row",
			c.Idx, c.Name, len(row))
	}
	return row[c.Idx], nil
}

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("_col%d", c.Idx)
}

// Const is a literal.
type Const struct {
	D types.Datum
}

var _ Expr = (*Const)(nil)

// Eval implements Expr.
func (c *Const) Eval(types.Row) (types.Datum, error) { return c.D, nil }

func (c *Const) String() string { return c.D.Text() }

// BinOpKind enumerates arithmetic operators.
type BinOpKind int

// Arithmetic operators.
const (
	OpAdd BinOpKind = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (o BinOpKind) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// BinOp is an arithmetic expression. Integer operands stay integral
// except for division, which is always floating (Hive's double result).
type BinOp struct {
	Op   BinOpKind
	L, R Expr
}

var _ Expr = (*BinOp)(nil)

// Eval implements Expr.
func (b *BinOp) Eval(row types.Row) (types.Datum, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	return binOpDatums(b.Op, l, r)
}

// binOpDatums applies op to two evaluated operands. It is the single
// scalar implementation shared by Eval and the batch kernels'
// mixed-kind lanes, so the two are bit-identical by construction.
func binOpDatums(op BinOpKind, l, r types.Datum) (types.Datum, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	intish := func(d types.Datum) bool {
		return d.K == types.KindInt || d.K == types.KindBool || d.K == types.KindDate
	}
	if op == OpDiv {
		if r.Float() == 0 {
			return types.Null(), nil // SQL x/0 -> NULL in Hive
		}
		return types.Float(l.Float() / r.Float()), nil
	}
	if op == OpMod {
		if r.Int() == 0 {
			return types.Null(), nil
		}
		return types.Int(l.Int() % r.Int()), nil
	}
	if intish(l) && intish(r) {
		switch op {
		case OpAdd:
			return types.Int(l.I + r.I), nil
		case OpSub:
			return types.Int(l.I - r.I), nil
		case OpMul:
			return types.Int(l.I * r.I), nil
		}
	}
	switch op {
	case OpAdd:
		return types.Float(l.Float() + r.Float()), nil
	case OpSub:
		return types.Float(l.Float() - r.Float()), nil
	case OpMul:
		return types.Float(l.Float() * r.Float()), nil
	}
	return types.Datum{}, fmt.Errorf("exec: unknown binop %v", op)
}

func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// CmpOpKind enumerates comparison operators.
type CmpOpKind int

// Comparison operators.
const (
	CmpEQ CmpOpKind = iota + 1
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOpKind) String() string {
	switch o {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return "?"
	}
}

// Cmp compares two expressions with SQL NULL semantics (NULL operand
// yields NULL, which filters treat as false).
type Cmp struct {
	Op   CmpOpKind
	L, R Expr
}

var _ Expr = (*Cmp)(nil)

// Eval implements Expr.
func (c *Cmp) Eval(row types.Row) (types.Datum, error) {
	l, err := c.L.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	r, err := c.R.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	return cmpDatums(c.Op, l, r)
}

// cmpDatums compares two evaluated operands with SQL NULL semantics —
// the shared scalar core of Cmp.Eval and the batch comparison
// kernels' mixed-kind lanes.
func cmpDatums(op CmpOpKind, l, r types.Datum) (types.Datum, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	v := types.Compare(l, r)
	out, err := cmpVerdict(op, v)
	if err != nil {
		return types.Datum{}, err
	}
	return types.Bool(out), nil
}

// cmpVerdict maps a three-way comparison result through op.
func cmpVerdict(op CmpOpKind, v int) (bool, error) {
	switch op {
	case CmpEQ:
		return v == 0, nil
	case CmpNE:
		return v != 0, nil
	case CmpLT:
		return v < 0, nil
	case CmpLE:
		return v <= 0, nil
	case CmpGT:
		return v > 0, nil
	case CmpGE:
		return v >= 0, nil
	default:
		return false, fmt.Errorf("exec: unknown cmp %v", op)
	}
}

func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// LogicKind enumerates boolean connectives.
type LogicKind int

// Boolean connectives.
const (
	LogicAnd LogicKind = iota + 1
	LogicOr
	LogicNot
)

// Logic is AND/OR/NOT with three-valued SQL semantics.
type Logic struct {
	Op   LogicKind
	L, R Expr // R nil for NOT
}

var _ Expr = (*Logic)(nil)

// Eval implements Expr.
func (l *Logic) Eval(row types.Row) (types.Datum, error) {
	a, err := l.L.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	if l.Op == LogicNot {
		if a.IsNull() {
			return types.Null(), nil
		}
		return types.Bool(!a.Bool()), nil
	}
	b, err := l.R.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	switch l.Op {
	case LogicAnd:
		if (!a.IsNull() && !a.Bool()) || (!b.IsNull() && !b.Bool()) {
			return types.Bool(false), nil
		}
		if a.IsNull() || b.IsNull() {
			return types.Null(), nil
		}
		return types.Bool(true), nil
	case LogicOr:
		if (!a.IsNull() && a.Bool()) || (!b.IsNull() && b.Bool()) {
			return types.Bool(true), nil
		}
		if a.IsNull() || b.IsNull() {
			return types.Null(), nil
		}
		return types.Bool(false), nil
	default:
		return types.Datum{}, fmt.Errorf("exec: unknown logic %v", l.Op)
	}
}

func (l *Logic) String() string {
	if l.Op == LogicNot {
		return fmt.Sprintf("(not %s)", l.L)
	}
	op := "and"
	if l.Op == LogicOr {
		op = "or"
	}
	return fmt.Sprintf("(%s %s %s)", l.L, op, l.R)
}

// IsNull tests for SQL NULL (or NOT NULL when Negate).
type IsNull struct {
	E      Expr
	Negate bool
}

var _ Expr = (*IsNull)(nil)

// Eval implements Expr.
func (i *IsNull) Eval(row types.Row) (types.Datum, error) {
	d, err := i.E.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	return types.Bool(d.IsNull() != i.Negate), nil
}

func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s is not null)", i.E)
	}
	return fmt.Sprintf("(%s is null)", i.E)
}

// In tests membership in a literal list.
type In struct {
	E      Expr
	List   []Expr
	Negate bool
}

var _ Expr = (*In)(nil)

// Eval implements Expr.
func (in *In) Eval(row types.Row) (types.Datum, error) {
	d, err := in.E.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	if d.IsNull() {
		return types.Null(), nil
	}
	for _, le := range in.List {
		v, err := le.Eval(row)
		if err != nil {
			return types.Datum{}, err
		}
		if types.Equal(d, v) {
			return types.Bool(!in.Negate), nil
		}
	}
	return types.Bool(in.Negate), nil
}

func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	op := "in"
	if in.Negate {
		op = "not in"
	}
	return fmt.Sprintf("(%s %s (%s))", in.E, op, strings.Join(parts, ", "))
}

// Between is lo <= e <= hi.
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

var _ Expr = (*Between)(nil)

// Eval implements Expr.
func (b *Between) Eval(row types.Row) (types.Datum, error) {
	d, err := b.E.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	lo, err := b.Lo.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	hi, err := b.Hi.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	if d.IsNull() || lo.IsNull() || hi.IsNull() {
		return types.Null(), nil
	}
	in := types.Compare(d, lo) >= 0 && types.Compare(d, hi) <= 0
	return types.Bool(in != b.Negate), nil
}

func (b *Between) String() string {
	return fmt.Sprintf("(%s between %s and %s)", b.E, b.Lo, b.Hi)
}

// Like matches SQL LIKE patterns (% and _ wildcards).
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
}

var _ Expr = (*Like)(nil)

// Eval implements Expr.
func (l *Like) Eval(row types.Row) (types.Datum, error) {
	d, err := l.E.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	if d.IsNull() {
		return types.Null(), nil
	}
	return types.Bool(likeMatch(d.Str(), l.Pattern) != l.Negate), nil
}

func (l *Like) String() string {
	op := "like"
	if l.Negate {
		op = "not like"
	}
	return fmt.Sprintf("(%s %s '%s')", l.E, op, l.Pattern)
}

// likeMatch implements LIKE with memoized recursion over positions.
func likeMatch(s, pat string) bool {
	// Iterative two-pointer algorithm with backtracking on '%'.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			ss++
			si = ss
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// Case is a searched CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
}

// CaseWhen is one WHEN cond THEN value arm.
type CaseWhen struct {
	Cond  Expr
	Value Expr
}

var _ Expr = (*Case)(nil)

// Eval implements Expr.
func (c *Case) Eval(row types.Row) (types.Datum, error) {
	for _, w := range c.Whens {
		cond, err := w.Cond.Eval(row)
		if err != nil {
			return types.Datum{}, err
		}
		if !cond.IsNull() && cond.Bool() {
			return w.Value.Eval(row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row)
	}
	return types.Null(), nil
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("case")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " when %s then %s", w.Cond, w.Value)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " else %s", c.Else)
	}
	sb.WriteString(" end")
	return sb.String()
}

// Func is a scalar builtin call.
type Func struct {
	Name string
	Args []Expr
}

var _ Expr = (*Func)(nil)

// Eval implements Expr.
func (f *Func) Eval(row types.Row) (types.Datum, error) {
	args := make([]types.Datum, len(f.Args))
	for i, a := range f.Args {
		d, err := a.Eval(row)
		if err != nil {
			return types.Datum{}, err
		}
		args[i] = d
	}
	return evalBuiltin(f.Name, args)
}

func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// BuiltinNames lists the supported scalar functions.
func BuiltinNames() []string {
	return []string{"year", "month", "day", "substr", "substring", "upper",
		"lower", "length", "concat", "abs", "round", "floor", "ceil",
		"to_date", "date_add", "if", "coalesce"}
}

func evalBuiltin(name string, args []types.Datum) (types.Datum, error) {
	anyNull := false
	for _, a := range args {
		if a.IsNull() {
			anyNull = true
		}
	}
	switch name {
	case "year", "month", "day":
		if anyNull {
			return types.Null(), nil
		}
		t := time.Unix(args[0].I*86400, 0).UTC()
		switch name {
		case "year":
			return types.Int(int64(t.Year())), nil
		case "month":
			return types.Int(int64(t.Month())), nil
		default:
			return types.Int(int64(t.Day())), nil
		}
	case "substr", "substring":
		if anyNull {
			return types.Null(), nil
		}
		s := args[0].Str()
		start := int(args[1].Int())
		if start > 0 {
			start--
		} else if start < 0 {
			start = len(s) + start
		}
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return types.String(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			l := int(args[2].Int())
			if l < 0 {
				l = 0
			}
			if start+l < end {
				end = start + l
			}
		}
		return types.String(s[start:end]), nil
	case "upper":
		if anyNull {
			return types.Null(), nil
		}
		return types.String(strings.ToUpper(args[0].Str())), nil
	case "lower":
		if anyNull {
			return types.Null(), nil
		}
		return types.String(strings.ToLower(args[0].Str())), nil
	case "length":
		if anyNull {
			return types.Null(), nil
		}
		return types.Int(int64(len(args[0].Str()))), nil
	case "concat":
		if anyNull {
			return types.Null(), nil
		}
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.Str())
		}
		return types.String(sb.String()), nil
	case "abs":
		if anyNull {
			return types.Null(), nil
		}
		if args[0].K == types.KindFloat {
			v := args[0].F
			if v < 0 {
				v = -v
			}
			return types.Float(v), nil
		}
		v := args[0].Int()
		if v < 0 {
			v = -v
		}
		return types.Int(v), nil
	case "round":
		if anyNull {
			return types.Null(), nil
		}
		scale := 0
		if len(args) == 2 {
			scale = int(args[1].Int())
		}
		mult := 1.0
		for i := 0; i < scale; i++ {
			mult *= 10
		}
		v := args[0].Float() * mult
		if v >= 0 {
			v = float64(int64(v + 0.5))
		} else {
			v = float64(int64(v - 0.5))
		}
		return types.Float(v / mult), nil
	case "floor":
		if anyNull {
			return types.Null(), nil
		}
		v := args[0].Float()
		i := int64(v)
		if v < 0 && float64(i) != v {
			i--
		}
		return types.Int(i), nil
	case "ceil":
		if anyNull {
			return types.Null(), nil
		}
		v := args[0].Float()
		i := int64(v)
		if v > 0 && float64(i) != v {
			i++
		}
		return types.Int(i), nil
	case "to_date":
		if anyNull {
			return types.Null(), nil
		}
		if args[0].K == types.KindDate {
			return args[0], nil
		}
		return types.DateFromString(args[0].Str())
	case "date_add":
		if anyNull {
			return types.Null(), nil
		}
		return types.Date(args[0].I + args[1].Int()), nil
	case "if":
		if len(args) != 3 {
			return types.Datum{}, fmt.Errorf("exec: if() wants 3 arguments")
		}
		if !args[0].IsNull() && args[0].Bool() {
			return args[1], nil
		}
		return args[2], nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null(), nil
	default:
		return types.Datum{}, fmt.Errorf("exec: unknown function %q", name)
	}
}

// Cast coerces a value to a target kind.
type Cast struct {
	E  Expr
	To types.Kind
}

var _ Expr = (*Cast)(nil)

// Eval implements Expr.
func (c *Cast) Eval(row types.Row) (types.Datum, error) {
	d, err := c.E.Eval(row)
	if err != nil {
		return types.Datum{}, err
	}
	return castDatum(c.To, d)
}

// castDatum coerces one evaluated value — the shared scalar core of
// Cast.Eval and the batch cast kernel's non-numeric lanes.
func castDatum(to types.Kind, d types.Datum) (types.Datum, error) {
	if d.IsNull() {
		return types.Null(), nil
	}
	switch to {
	case types.KindInt:
		return types.Int(d.Int()), nil
	case types.KindFloat:
		return types.Float(d.Float()), nil
	case types.KindString:
		return types.String(d.Text()), nil
	case types.KindDate:
		if d.K == types.KindString {
			return types.DateFromString(d.S)
		}
		return types.Date(d.Int()), nil
	case types.KindBool:
		return types.Bool(d.Bool()), nil
	default:
		return types.Datum{}, fmt.Errorf("exec: cannot cast to %v", to)
	}
}

func (c *Cast) String() string { return fmt.Sprintf("cast(%s as %s)", c.E, c.To) }
