package wire

// ConfigDigest exposes the handshake's configuration digest to the
// external test package, whose raw-stream tests hand-roll Hello frames.
var ConfigDigest = configDigest

// QueueCap exposes the ingest credits a collector grants each
// connection, which bound how far an agent runs ahead of the close.
const QueueCap = queueCap
