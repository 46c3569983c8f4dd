// Package lockio forbids file and network I/O while an in-memory mutex is
// held: an fsync under the store lock turns every reader's microseconds
// into the disk's milliseconds.
//
// An I/O call is: a call into package os or net (minus small pure
// safelists) or net/http (minus the in-memory methods of http.Header and
// *http.Request, told apart by receiver type; net/url is never I/O); a
// call to the journal package's file-backed operations
// (Open, Append, Sync, Compact, Close, ...); or a call to a package-local
// function that itself performs I/O (computed transitively within the
// package, so wrapping os.MkdirAll in a helper does not hide it).
//
// One structural exemption: a mutex whose struct also owns an *os.File is
// that file's own serialization lock — the journal's mu exists precisely
// to order writes to the file it owns, and holding it across those writes
// is the point, not a bug. Locks on purely in-memory state (store, tenant
// manager, metrics, queue) get no such pass.
//
// Calls through function values (the store's persist hook) are statically
// invisible; that indirection is the sanctioned write-ahead channel, and
// its discipline is journalorder's department, not lockio's.
package lockio

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockio analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "no file or network I/O while an in-memory mutex is held",
	Run:  run,
}

// osSafe are package os functions with no I/O behind them.
var osSafe = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Expand": true,
	"ExpandEnv": true, "Getpid": true, "Getppid": true, "Getuid": true,
	"Geteuid": true, "Getgid": true, "TempDir": true, "UserHomeDir": true,
	"IsNotExist": true, "IsExist": true, "IsPermission": true,
	"IsTimeout": true, "NewSyscallError": true, "Exit": true,
}

// netSafe are package net functions and methods that only format or parse
// addresses — no sockets behind them.
var netSafe = map[string]bool{
	"String": true, "Network": true, "Addr": true, "JoinHostPort": true,
	"SplitHostPort": true, "ParseIP": true, "ParseCIDR": true,
	"ParseMAC": true, "LocalAddr": true, "RemoteAddr": true, "Error": true,
	"Timeout": true, "Temporary": true,
}

// httpSafe are the net/http methods that only read or edit in-memory state,
// keyed by receiver type: an http.Header is a map (its Write and
// WriteSubset write to an io.Writer and stay I/O), and these *http.Request
// accessors never touch the body. Package functions (http.Get) are I/O.
var httpSafe = map[string]map[string]bool{
	"Header": {"Add": true, "Clone": true, "Del": true, "Get": true, "Set": true, "Values": true},
	"Request": {
		"Context": true, "WithContext": true, "Clone": true, "PathValue": true,
		"SetPathValue": true, "Cookie": true, "Cookies": true, "CookiesNamed": true,
		"AddCookie": true, "BasicAuth": true, "SetBasicAuth": true,
		"ProtoAtLeast": true, "Referer": true, "UserAgent": true,
	},
}

// journalPkg's file-backed operations — including the replication-stream
// surface (AppendFrame, TailSince, ResetTo), which reads or writes the
// journal file just like Append does; the rest of the package's surface
// (Seq, Offset, CompactedThrough, record accessors) is in-memory.
var journalPkg = "repro/internal/journal"

var journalIO = map[string]bool{
	"Open": true, "Append": true, "Sync": true, "Compact": true,
	"Close": true, "CloseAbrupt": true, "Rotate": true,
	"AppendFrame": true, "TailSince": true, "ResetTo": true,
}

func run(pass *analysis.Pass) error {
	doers := localIODoers(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.HasDirective(fn.Doc, "exclusive") {
				continue
			}
			checkFunc(pass, fn, doers)
		}
	}
	return nil
}

// isDirectIO reports whether the call resolves to an I/O function outside
// this package, naming it for the diagnostic.
func isDirectIO(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return "", false
	}
	path := fn.Pkg().Path()
	switch {
	case path == "os":
		if osSafe[fn.Name()] {
			return "", false
		}
		return "os." + fn.Name(), true
	case path == "net":
		if netSafe[fn.Name()] {
			return "", false
		}
		return "net." + fn.Name(), true
	case path == "net/http":
		if httpSafe[recvName(fn)][fn.Name()] {
			return "", false
		}
		return "net/http." + fn.Name(), true
	case path == journalPkg && journalIO[fn.Name()]:
		return "journal." + fn.Name(), true
	}
	return "", false
}

// localIODoers computes, to a fixpoint, the package-local functions whose
// bodies (transitively) contain a direct I/O call.
func localIODoers(pass *analysis.Pass) map[*types.Func]bool {
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func); obj != nil {
				bodies[obj] = fn
			}
		}
	}
	doers := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for obj, fn := range bodies {
			if doers[obj] {
				continue
			}
			found := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, ok := isDirectIO(pass, call); ok {
					found = true
					return false
				}
				if callee := calleeFunc(pass, call); callee != nil && doers[callee] {
					found = true
					return false
				}
				return true
			})
			if found {
				doers[obj] = true
				changed = true
			}
		}
	}
	return doers
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, doers map[*types.Func]bool) {
	exempt := ownsFileMutexes(pass, fn.Body)
	analysis.WalkWithLocks(pass.TypesInfo, fn.Body, nil, analysis.LockFree, func(n ast.Node, locks analysis.Locks) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name, io := isDirectIO(pass, call)
		if !io {
			if callee := calleeFunc(pass, call); callee != nil && doers[callee] {
				name, io = callee.Name(), true
			}
		}
		if !io {
			return
		}
		for _, held := range locks.Held() {
			if exempt[held] {
				continue
			}
			pass.Reportf(call.Pos(), "I/O call %s while %s is held; release the lock or move the I/O out of the critical section", name, held)
			return
		}
	})
}

// ownsFileMutexes finds lock keys ("j.mu") whose base struct also owns an
// *os.File: that mutex is the file's serialization lock and exempt.
func ownsFileMutexes(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	exempt := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sel]
		if !ok || !isMutexType(tv.Type) {
			return true
		}
		base, ok := pass.TypesInfo.Types[sel.X]
		if ok && structOwnsFile(base.Type) {
			exempt[types.ExprString(sel)] = true
		}
		return true
	})
	return exempt
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

func structOwnsFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if p, ok := ft.(*types.Pointer); ok {
			if n, ok := p.Elem().(*types.Named); ok &&
				n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "os" && n.Obj().Name() == "File" {
				return true
			}
		}
	}
	return false
}

// recvName names a method's receiver type, pointer stripped ("Request"
// for *http.Request); "" for a plain function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
