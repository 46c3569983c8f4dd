// Package replication implements journal-streaming replication for the
// integration server: a leader exposes each workspace's write-ahead journal
// as an HTTP stream (a snapshot plus CRC-framed tail records addressed by
// sequence number), and a follower pulls that stream and applies it through
// the server's recovery paths, converging on a byte-identical journal and
// store state.
//
// The wire format IS the journal's on-disk format: the leader ships the
// literal framed lines from its journal file, and the follower appends them
// verbatim. The per-line CRC32 that guards the journal against torn writes
// doubles as the wire-integrity check, and byte-identical replica journals
// fall out by construction rather than by careful re-encoding.
//
// The package deliberately knows nothing about the server: the follower
// side is expressed as the Target interface, which the server implements on
// top of its //sit:replay recovery paths.
package replication

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Wire paths and headers. The record stream's metadata travels in headers
// because the body is the raw journal tail, not JSON.
const (
	// PathPrefix roots the leader-side replication API.
	PathPrefix = "/v1/replication/workspaces"
	// HeaderSeq carries the leader journal's current sequence number on a
	// records response; the follower's lag is HeaderSeq minus its own.
	HeaderSeq = "X-Sit-Seq"
	// HeaderHorizon carries the leader's compaction horizon (the snapshot's
	// sequence number). A follower behind it cannot catch up from records
	// and must re-bootstrap from a snapshot.
	HeaderHorizon = "X-Sit-Horizon"
	// HeaderOffset carries the leader journal's byte length on a records
	// response; the follower's byte lag is HeaderOffset minus its own
	// journal offset (comparable because the journals are byte-identical).
	HeaderOffset = "X-Sit-Offset"
)

// WorkspaceStatus is one workspace's replication position on the leader.
type WorkspaceStatus struct {
	Name string `json:"name"`
	// Seq is the workspace journal's last assigned sequence number.
	Seq uint64 `json:"seq"`
	// Horizon is the compaction horizon: records at or below it exist only
	// in the snapshot.
	Horizon uint64 `json:"horizon"`
}

// ListResponse is the body of GET /v1/replication/workspaces.
type ListResponse struct {
	Workspaces []WorkspaceStatus `json:"workspaces"`
	// Version is the leader-wide change counter read before the list was
	// built: it moves on every journal append or reset and every workspace
	// create or delete. Sent back as ?since, it holds the next list request
	// until something changes. Zero means the leader predates the field.
	Version uint64 `json:"version,omitempty"`
}

// Snapshot is the body of GET /v1/replication/workspaces/{ws}/snapshot: an
// opaque state capture at a sequence number, checksummed end to end.
type Snapshot struct {
	Seq uint64 `json:"seq"`
	// CRC32 is the IEEE checksum of State's exact bytes, as eight hex
	// digits — the same framing discipline as journal lines.
	CRC32 string          `json:"crc32"`
	State json.RawMessage `json:"state"`
}

// ChecksumState renders the snapshot checksum for state.
func ChecksumState(state []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(state))
}

// Verify checks the snapshot's state against its checksum.
func (s Snapshot) Verify() error {
	if got := ChecksumState(s.State); got != s.CRC32 {
		return fmt.Errorf("replication: snapshot checksum %s does not match state (%s)", s.CRC32, got)
	}
	return nil
}
