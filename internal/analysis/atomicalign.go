package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// atomicAlignRule reports struct fields that are targets of 64-bit
// sync/atomic operations but sit at an offset that is not 8-byte aligned
// under 32-bit struct layout. On 386 and 32-bit arm the compiler only
// guarantees 4-byte alignment for int64/uint64 struct fields, and a
// misaligned 64-bit atomic panics at runtime — so code that is correct
// on amd64 can crash the moment it runs on a smaller target. The typed
// wrappers (atomic.Int64, atomic.Uint64) carry an align64 marker and are
// immune; this rule covers the function form on plain fields.
//
// The rule is a Collector: phase one records every struct field whose
// address is passed to a 64-bit sync/atomic function anywhere in the
// module; phase two lays out each package's struct types with 32-bit
// sizes and reports the recorded fields at misaligned offsets. A struct
// type that contains such a field is itself alignment-sensitive, so the
// rule also reports fields of that struct type (or arrays of it)
// embedded at misaligned offsets in other module structs.
type atomicAlignRule struct {
	modulePath string

	atomic64 map[*types.Var][]token.Pos // field -> 64-bit atomic access sites
}

// sizes32 is the strictest production layout the module targets: 32-bit
// word size, maximum alignment 4 (gc on 386/arm).
var sizes32 = types.SizesFor("gc", "386")

func (r *atomicAlignRule) Name() string { return "atomicalign" }
func (r *atomicAlignRule) Doc() string {
	return "64-bit sync/atomic targets must sit at 8-byte-aligned struct offsets under 32-bit layout; misaligned 64-bit atomics panic on 386/arm (prefer atomic.Int64/Uint64, which self-align)"
}

// atomic64Funcs is the set of sync/atomic functions that require
// 8-byte-aligned operands.
var atomic64Funcs = map[string]bool{
	"AddInt64": true, "AddUint64": true,
	"LoadInt64": true, "LoadUint64": true,
	"StoreInt64": true, "StoreUint64": true,
	"SwapInt64": true, "SwapUint64": true,
	"CompareAndSwapInt64": true, "CompareAndSwapUint64": true,
}

// Collect records the struct fields passed by address to 64-bit
// sync/atomic functions in pkg.
func (r *atomicAlignRule) Collect(pass *Pass) {
	if r.atomic64 == nil {
		r.atomic64 = make(map[*types.Var][]token.Pos)
	}
	pkg := pass.Pkg
	if !inEnforcedTree(r.modulePath, pkg.Path) {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeObject(pkg.Info, call).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !atomic64Funcs[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				arg = ast.Unparen(arg)
				ue, ok := arg.(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				if sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr); ok {
					if field := selectedField(pkg.Info, sel); field != nil {
						r.atomic64[field] = append(r.atomic64[field], sel.Sel.Pos())
					}
				}
			}
			return true
		})
	}
}

// Check lays out pkg's struct types with 32-bit sizes and reports
// atomic64 fields (and alignment-sensitive embedded structs) at offsets
// that are not multiples of 8.
func (r *atomicAlignRule) Check(pass *Pass) {
	pkg := pass.Pkg
	if !inEnforcedTree(r.modulePath, pkg.Path) {
		return
	}
	// Structs that transitively contain a 64-bit atomic field need
	// 8-alignment wherever they are placed.
	sensitive := r.sensitiveStructs(pass.Module)

	type finding struct {
		pos token.Pos
		msg string
	}
	var finds []finding
	for _, st := range moduleStructs(pkg) {
		fields := fixedPrefix(structFields(st))
		offsets := sizes32.Offsetsof(fields)
		for i, f := range fields {
			off := offsets[i]
			if len(r.atomic64[f]) > 0 && off%8 != 0 {
				finds = append(finds, finding{f.Pos(), fmt.Sprintf(
					"64-bit atomic field %s is at 32-bit offset %d, not 8-byte aligned; move it to the front, pad, or use atomic.%s",
					f.Name(), off, suggestTypedAtomic(f))})
				continue
			}
			if inner := structOf(f.Type()); inner != nil && sensitive[inner] && off%8 != 0 {
				finds = append(finds, finding{f.Pos(), fmt.Sprintf(
					"field %s embeds a struct with 64-bit atomic fields at 32-bit offset %d, breaking their 8-byte alignment; move it to the front or pad",
					f.Name(), off)})
			}
		}
	}
	sort.Slice(finds, func(i, j int) bool { return finds[i].pos < finds[j].pos })
	for _, f := range finds {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// sensitiveStructs returns the struct types that contain a 64-bit
// atomic field, computed over the whole module so embedded placements in
// other packages are caught.
func (r *atomicAlignRule) sensitiveStructs(m *Module) map[*types.Struct]bool {
	out := make(map[*types.Struct]bool)
	for _, pkg := range m.Pkgs {
		for _, st := range moduleStructs(pkg) {
			for _, f := range structFields(st) {
				if len(r.atomic64[f]) > 0 {
					out[st] = true
					break
				}
			}
		}
	}
	return out
}

// moduleStructs lists the struct types declared in pkg, in declaration
// order.
func moduleStructs(pkg *Package) []*types.Struct {
	var out []*types.Struct
	scope := pkg.Types.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			out = append(out, st)
		}
	}
	return out
}

// structFields returns st's fields as a slice for Offsetsof.
func structFields(st *types.Struct) []*types.Var {
	out := make([]*types.Var, st.NumFields())
	for i := range out {
		out[i] = st.Field(i)
	}
	return out
}

// fixedPrefix returns the fields laid out before the first field whose
// size depends on a type parameter. A generic struct has no layout
// until it is instantiated, and only its fields ahead of the first
// parameter-typed field have the same offsets in every instantiation.
func fixedPrefix(fields []*types.Var) []*types.Var {
	for i, f := range fields {
		if !hasLayout(f.Type()) {
			return fields[:i]
		}
	}
	return fields
}

// hasLayout reports whether t's size and alignment are known without
// instantiating a type parameter.
func hasLayout(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false // its Underlying is the constraint's interface
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		return hasLayout(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !hasLayout(u.Field(i).Type()) {
				return false
			}
		}
	}
	return true
}

// structOf unwraps a field type to the struct it places inline, looking
// through named types and arrays (a misaligned [N]S misaligns every
// element past the first even if the first lands well).
func structOf(t types.Type) *types.Struct {
	for {
		switch u := t.(type) {
		case *types.Named:
			t = u.Underlying()
		case *types.Array:
			t = u.Elem()
		case *types.Struct:
			return u
		default:
			return nil
		}
	}
}
