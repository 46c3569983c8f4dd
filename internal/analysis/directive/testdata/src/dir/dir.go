package dir

import "sync"

type S struct{ mu sync.RWMutex }

// ok has a well-formed directive set.
//
//sit:locked mu
func (s *S) ok() {}

// typo misspells a directive.
//
//sit:lokced mu
func (s *S) typo() {} // want "unknown directive //sit:lokced on S.typo: no analyzer consumes it"

// missingArg declares a held lock without naming it.
//
//sit:locked
func (s *S) missingArg() {} // want "//sit:locked on S.missingArg has 0 arguments, want at least 1"

// extraArg gives arguments to a marker directive.
//
//sit:replay records
func replay() {} // want "//sit:replay on replay has 1 argument, want exactly 0"

// boundedOK is a marker with no arguments, as required.
//
//sit:boundedlabel
func boundedOK() string { return "" }

// captures carries a snapshot-coverage list no analyzer reads any more.
//
//sit:captures opX
func captures() {} // want "unknown directive //sit:captures on captures: no analyzer consumes it"

// bootstrap carries a follower-seed list no analyzer reads any more.
//
//sit:bootstrap opX
func bootstrap() {} // want "unknown directive //sit:bootstrap on bootstrap: no analyzer consumes it"
