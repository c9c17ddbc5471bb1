package opt

// OracleAppendCompressUpdate lets the external tests hold what a client
// sends to the oracle encoder.
var OracleAppendCompressUpdate = oracleAppendCompressUpdate
