#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "crypto/secure_agg.h"
#include "net/membership.h"
#include "net/messages.h"
#include "net/wire.h"

namespace uldp {
namespace net {
namespace {

// Boundary BigInt values: zero, one, a value whose low limb is zero (the
// high-zero-limb shape that broke the original OT serialization), a
// 64-bit boundary, a max-width 2048-bit value, and negatives.
std::vector<BigInt> BoundaryBigInts() {
  std::vector<BigInt> values;
  values.push_back(BigInt(0));
  values.push_back(BigInt(1));
  values.push_back(BigInt(1) << 64);                  // low limb zero
  values.push_back((BigInt(1) << 64) - BigInt(1));    // all-ones limb
  values.push_back(BigInt(uint64_t{0xDEADBEEF}));
  BigInt wide = (BigInt(1) << 2048) - BigInt(12345);  // max-width magnitude
  values.push_back(wide);
  values.push_back(-BigInt(7));
  values.push_back(-((BigInt(1) << 192) + BigInt(3)));
  return values;
}

TEST(WirePrimitiveTest, BigIntRoundTripsBoundaryValues) {
  for (const BigInt& v : BoundaryBigInts()) {
    WireWriter w;
    w.Big(v);
    WireReader r(w.buffer());
    BigInt back;
    ASSERT_TRUE(r.Big(&back).ok()) << v.ToHex();
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WirePrimitiveTest, ScalarsAndVectorsRoundTrip) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0xCDEF);
  w.U32(0x12345678u);
  w.U64(0x1122334455667788ull);
  w.F64(-1.25e-10);
  w.Bytes({1, 2, 3});
  w.BigVec(BoundaryBigInts());
  w.F64Vec({0.0, -0.0, 1.5, -2.75});
  w.BytesVec({{}, {9}, {8, 7}});

  WireReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  double f64;
  std::vector<uint8_t> bytes;
  std::vector<BigInt> bigs;
  std::vector<double> doubles;
  std::vector<std::vector<uint8_t>> chunks;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U16(&u16).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Bytes(&bytes).ok());
  ASSERT_TRUE(r.BigVec(&bigs).ok());
  ASSERT_TRUE(r.F64Vec(&doubles).ok());
  ASSERT_TRUE(r.BytesVec(&chunks).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xCDEF);
  EXPECT_EQ(u32, 0x12345678u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(f64, -1.25e-10);
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(bigs, BoundaryBigInts());
  EXPECT_EQ(doubles, (std::vector<double>{0.0, -0.0, 1.5, -2.75}));
  EXPECT_EQ(chunks, (std::vector<std::vector<uint8_t>>{{}, {9}, {8, 7}}));
}

TEST(WirePrimitiveTest, F64VecWritesGoldenBytesForSpecialValues) {
  // -0.0, +inf, -inf, a NaN with a payload, and the smallest denormal:
  // each travels as its exact bit pattern, little-endian.
  const std::vector<uint64_t> patterns = {
      0x8000000000000000ull, 0x7FF0000000000000ull, 0xFFF0000000000000ull,
      0x7FF8000000000123ull, 0x0000000000000001ull};
  std::vector<double> values(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    std::memcpy(&values[i], &patterns[i], sizeof(double));
  }
  WireWriter w;
  w.F64Vec(values);
  const std::vector<uint8_t> golden = {
      0x05, 0x00, 0x00, 0x00,                          // count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x7F,  // +inf
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0xFF,  // -inf
      0x23, 0x01, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x7F,  // NaN payload 0x123
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // denormal
  };
  EXPECT_EQ(w.buffer(), golden);
  WireReader r(golden);
  std::vector<double> back;
  ASSERT_TRUE(r.F64Vec(&back).ok());
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(back.size(), patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    uint64_t bits;
    std::memcpy(&bits, &back[i], sizeof(bits));
    EXPECT_EQ(bits, patterns[i]) << "element " << i;
  }
}

/// Three elements over 2^127 - 1: zero, one with a distinct byte in every
/// position, and p - 1.
FieldVector GoldenFieldElements() {
  FieldVector v(3, kAggregationLimbs);
  v.element(1)[0] = 0x0807060504030201ull;
  v.element(1)[1] = 0x100F0E0D0C0B0A09ull;
  v.element(2)[0] = 0xFFFFFFFFFFFFFFFEull;
  v.element(2)[1] = 0x7FFFFFFFFFFFFFFFull;
  return v;
}

TEST(WirePrimitiveTest, FieldVecWritesGoldenBytes) {
  // A u32 count, then each element's two limbs little-endian: 16 bytes
  // per element, no sign byte and no length field.
  WireWriter w;
  w.FieldVec(GoldenFieldElements());
  const std::vector<uint8_t> golden = {
      0x03, 0x00, 0x00, 0x00,                          // count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // low limb
      0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10,  // high limb
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // p - 1
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,
  };
  EXPECT_EQ(w.buffer(), golden);
  WireReader r(golden);
  FieldVector back;
  ASSERT_TRUE(r.FieldVec(AggregationPrime(), &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back, GoldenFieldElements());
}

TEST(WirePrimitiveTest, TruncatedReadsFailAndPoisonTheReader) {
  WireWriter w;
  w.U32(7);
  WireReader r(w.buffer());
  uint64_t u64;
  EXPECT_FALSE(r.U64(&u64).ok());  // only 4 bytes available
  uint8_t u8;
  EXPECT_FALSE(r.U8(&u8).ok());  // poisoned: even a fitting read fails
}

TEST(WirePrimitiveTest, HostileCountsAreRejectedBeforeAllocation) {
  // A BigInt vector claiming 2^31 elements inside a 12-byte payload.
  WireWriter w;
  w.U32(0x80000000u);
  w.U64(0);
  WireReader r(w.buffer());
  std::vector<BigInt> bigs;
  EXPECT_FALSE(r.BigVec(&bigs).ok());
  WireReader r_field(w.buffer());
  FieldVector field;
  EXPECT_FALSE(r_field.FieldVec(AggregationPrime(), &field).ok());

  WireWriter w2;
  w2.U32(0xFFFFFFFFu);
  WireReader r2(w2.buffer());
  std::vector<double> doubles;
  EXPECT_FALSE(r2.F64Vec(&doubles).ok());
}

TEST(WireFrameTest, EncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = 42;
  frame.payload = {1, 2, 3, 4, 5};
  auto bytes = EncodeFrame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 5);
  auto back = DecodeFrame(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, 42);
  EXPECT_EQ(back.value().payload, frame.payload);
}

TEST(WireFrameTest, CorruptedFramesAreRejected) {
  Frame frame;
  frame.type = 7;
  frame.payload = {9, 9, 9};
  auto good = EncodeFrame(frame);

  // Truncated header.
  std::vector<uint8_t> short_header(good.begin(), good.begin() + 6);
  EXPECT_FALSE(DecodeFrame(short_header).ok());
  // Truncated payload.
  std::vector<uint8_t> short_payload(good.begin(), good.end() - 1);
  EXPECT_FALSE(DecodeFrame(short_payload).ok());
  // Trailing garbage.
  auto trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeFrame(trailing).ok());
  // Bad magic.
  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());
  // Unsupported version.
  auto bad_version = good;
  bad_version[4] = 99;
  EXPECT_FALSE(DecodeFrame(bad_version).ok());
  // Payload length beyond the cap.
  auto bad_len = good;
  bad_len[8] = 0xFF;
  bad_len[9] = 0xFF;
  bad_len[10] = 0xFF;
  bad_len[11] = 0xFF;
  EXPECT_FALSE(DecodeFrame(bad_len).ok());
}

// ---------------------------------------------------------------------------
// Message round trips: every wire message type.

template <typename M>
M RoundTrip(const M& message) {
  Frame frame = ToFrame(message);
  // Through the full frame codec, as a transport would.
  auto decoded = DecodeFrame(EncodeFrame(frame));
  EXPECT_TRUE(decoded.ok());
  auto back = FromFrame<M>(decoded.value());
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.value();
}

TEST(MessageRoundTripTest, Join) {
  JoinMsg m;
  m.silo_id = 3;
  m.num_silos = 5;
  m.num_users = 1000;
  m.config_digest = 0xFEEDFACECAFEBEEFull;
  auto back = RoundTrip(m);
  EXPECT_EQ(back.silo_id, m.silo_id);
  EXPECT_EQ(back.num_silos, m.num_silos);
  EXPECT_EQ(back.num_users, m.num_users);
  EXPECT_EQ(back.config_digest, m.config_digest);
}

TEST(MessageRoundTripTest, SetupParams) {
  SetupParamsMsg m;
  m.paillier_n = (BigInt(1) << 512) + BigInt(12345);
  m.ot_p = (BigInt(1) << 192) - BigInt(6983);
  m.ot_g = BigInt(5);
  auto back = RoundTrip(m);
  EXPECT_EQ(back.paillier_n, m.paillier_n);
  EXPECT_EQ(back.ot_p, m.ot_p);
  EXPECT_EQ(back.ot_g, m.ot_g);
}

TEST(MessageRoundTripTest, DhMessages) {
  DhPublicKeyMsg key;
  key.silo_id = 2;
  key.public_key = BigInt(1) << 1024;  // high-zero-limb boundary
  auto key_back = RoundTrip(key);
  EXPECT_EQ(key_back.silo_id, 2u);
  EXPECT_EQ(key_back.public_key, key.public_key);

  DhDirectoryMsg dir;
  dir.public_keys = BoundaryBigInts();
  EXPECT_EQ(RoundTrip(dir).public_keys, dir.public_keys);
}

TEST(MessageRoundTripTest, SeedShareAndRelay) {
  SeedShareMsg seed;
  seed.from_silo = 0;
  seed.to_silo = 4;
  seed.ciphertext = {0xDE, 0xAD, 0x00, 0xEF};
  auto seed_back = RoundTrip(seed);
  EXPECT_EQ(seed_back.to_silo, 4u);
  EXPECT_EQ(seed_back.ciphertext, seed.ciphertext);

  WeightRelayMsg relay;
  relay.phase_tag = MakeMaskTag(MaskPhase::kOtWeightRelay, 9);
  relay.from_silo = 0;
  relay.to_silo = 1;
  relay.ciphertext = std::vector<uint8_t>(1000, 0x5A);
  auto relay_back = RoundTrip(relay);
  EXPECT_EQ(relay_back.phase_tag, relay.phase_tag);
  EXPECT_EQ(relay_back.ciphertext, relay.ciphertext);
}

TEST(MessageRoundTripTest, HistogramAndCiphers) {
  BlindedHistogramMsg hist;
  hist.silo_id = 1;
  hist.values = BoundaryBigInts();
  EXPECT_EQ(RoundTrip(hist).values, hist.values);

  SiloCipherMsg cipher;
  cipher.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, 3);
  cipher.silo_id = 2;
  cipher.dim = 32;  // model dim; packed frames carry fewer ciphertexts
  cipher.cipher = BoundaryBigInts();
  auto cipher_back = RoundTrip(cipher);
  EXPECT_EQ(cipher_back.phase_tag, cipher.phase_tag);
  EXPECT_EQ(cipher_back.dim, cipher.dim);
  EXPECT_EQ(cipher_back.cipher, cipher.cipher);

  // Masked vectors hold canonical elements of the aggregation field.
  MaskedVectorMsg masked;
  masked.phase_tag = MakeMaskTag(MaskPhase::kHistogramBlind, 0);
  masked.party_id = 7;
  const std::vector<BigInt> canonical = {
      BigInt(0), BigInt(1), (BigInt(1) << 64) - BigInt(1), BigInt(1) << 64,
      AggregationPrime() - BigInt(1)};
  masked.values = canonical;
  const MaskedVectorMsg masked_back = RoundTrip(masked);
  EXPECT_EQ(masked_back.values, masked.values);
  EXPECT_EQ(masked_back.values.ToBigInts(), canonical);
}

TEST(MessageRoundTripTest, RoundMessages) {
  RoundBeginMsg begin;
  begin.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, 17);
  begin.enc_weights = BoundaryBigInts();
  auto begin_back = RoundTrip(begin);
  EXPECT_EQ(begin_back.phase_tag, begin.phase_tag);
  EXPECT_EQ(begin_back.enc_weights, begin.enc_weights);

  RoundResultMsg result;
  result.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, 17);
  result.aggregate = {1.0, -2.5, 0.0, 3.25e-9};
  EXPECT_EQ(RoundTrip(result).aggregate, result.aggregate);

  EXPECT_TRUE(
      FromFrame<SetupAckMsg>(ToFrame(SetupAckMsg{})).ok());
  EXPECT_TRUE(FromFrame<ShutdownMsg>(ToFrame(ShutdownMsg{})).ok());
}

TEST(MessageRoundTripTest, OtMessages) {
  OtSenderMsg sender;
  sender.phase_tag = MakeMaskTag(MaskPhase::kOtSlotChoice, 5);
  sender.senders.resize(2);
  sender.senders[0].c = {BigInt(11), BigInt(1) << 64, BigInt(13)};
  sender.senders[0].a = BigInt(17);
  sender.senders[1].c = {BigInt(0), BigInt(2), BigInt(3)};
  sender.senders[1].a = (BigInt(1) << 192) + BigInt(1);
  auto sender_back = RoundTrip(sender);
  ASSERT_EQ(sender_back.senders.size(), 2u);
  EXPECT_EQ(sender_back.senders[0].c, sender.senders[0].c);
  EXPECT_EQ(sender_back.senders[1].a, sender.senders[1].a);

  OtReceiverMsg receiver;
  receiver.phase_tag = sender.phase_tag;
  receiver.bs = BoundaryBigInts();
  EXPECT_EQ(RoundTrip(receiver).bs, receiver.bs);

  OtSlotsMsg slots;
  slots.phase_tag = sender.phase_tag;
  slots.slots = {{{1, 2}, {3, 4}}, {{}, {5}}};
  EXPECT_EQ(RoundTrip(slots).slots, slots.slots);
}

TEST(MessageRoundTripTest, Error) {
  ErrorMsg m;
  m.code = static_cast<uint16_t>(StatusCode::kInvalidArgument);
  m.message = "something broke: \xF0\x9F\x94\xA5";
  auto back = RoundTrip(m);
  EXPECT_EQ(back.code, m.code);
  EXPECT_EQ(back.message, m.message);
}

TEST(MessageRoundTripTest, EvictAndMalformedEvictPayloads) {
  for (const std::string& reason : {std::string(), std::string(3000, 'r')}) {
    SCOPED_TRACE(reason.size());
    EvictMsg m;
    m.silo_id = 4;
    m.version = 0x0123456789ABCDEFull;
    m.code = static_cast<uint16_t>(StatusCode::kDeadlineExceeded);
    m.reason = reason;
    auto back = RoundTrip(m);
    EXPECT_EQ(back.silo_id, m.silo_id);
    EXPECT_EQ(back.version, m.version);
    EXPECT_EQ(back.code, m.code);
    EXPECT_EQ(back.reason, m.reason);

    const Frame frame = ToFrame(m);
    for (size_t n = 0; n < frame.payload.size(); ++n) {
      Frame cut = frame;
      cut.payload.resize(n);
      EXPECT_FALSE(FromFrame<EvictMsg>(cut).ok()) << n << "-byte prefix";
    }
    Frame trailing = frame;
    trailing.payload.push_back(0);
    EXPECT_FALSE(FromFrame<EvictMsg>(trailing).ok());

    // A reason length one byte past the payload.
    WireWriter w;
    w.U32(m.silo_id);
    w.U64(m.version);
    w.U16(m.code);
    w.U32(static_cast<uint32_t>(reason.size() + 1));
    Frame lying = frame;
    lying.payload = w.Take();
    lying.payload.insert(lying.payload.end(), reason.begin(), reason.end());
    EXPECT_EQ(FromFrame<EvictMsg>(lying).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(MessageDecodeTest, WrongTypeAndTrailingBytesRejected) {
  JoinMsg join;
  join.silo_id = 1;
  Frame frame = ToFrame(join);
  // Decoding as a different message type fails.
  EXPECT_FALSE(FromFrame<ShutdownMsg>(frame).ok());
  // Trailing garbage after a well-formed payload fails.
  frame.payload.push_back(0xAA);
  EXPECT_FALSE(FromFrame<JoinMsg>(frame).ok());
  // Truncated payload fails.
  Frame short_frame = ToFrame(join);
  short_frame.payload.pop_back();
  EXPECT_FALSE(FromFrame<JoinMsg>(short_frame).ok());
}

TEST(MessageDecodeTest, MaskedVectorWritesGoldenBytes) {
  MaskedVectorMsg msg;
  msg.phase_tag = 0x1122334455667788ull;
  msg.party_id = 3;
  msg.values = GoldenFieldElements();
  const std::vector<uint8_t> payload = {
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // phase_tag
      0x03, 0x00, 0x00, 0x00,                          // party_id
      0x03, 0x00, 0x00, 0x00,                          // count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
      0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10,
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // p - 1
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,
  };
  const Frame frame = ToFrame(msg);
  EXPECT_EQ(frame.payload, payload);
  // Header: magic, wire version 3, type 16, payload length 64.
  const std::vector<uint8_t> wire = EncodeFrame(frame);
  const std::vector<uint8_t> header = {'U',  'L',  'D',  'P',  0x03, 0x00,
                                       0x10, 0x00, 0x40, 0x00, 0x00, 0x00};
  ASSERT_GE(wire.size(), header.size());
  EXPECT_EQ(std::vector<uint8_t>(wire.begin(), wire.begin() + 12), header);
  auto back = FromFrame<MaskedVectorMsg>(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().phase_tag, msg.phase_tag);
  EXPECT_EQ(back.value().party_id, msg.party_id);
  EXPECT_EQ(back.value().values, msg.values);
}

TEST(MessageDecodeTest, MaskedVectorRejectsMalformedPayloads) {
  // Two elements: a valid 5, then the element under test, as raw limbs.
  auto frame_with = [](uint64_t lo, uint64_t hi) {
    WireWriter w;
    w.U64(MakeMaskTag(MaskPhase::kFlAggregation, 0));
    w.U32(0);
    w.U32(2);
    w.U64(5);
    w.U64(0);
    w.U64(lo);
    w.U64(hi);
    Frame frame;
    frame.type = static_cast<uint16_t>(MessageType::kMaskedVector);
    frame.payload = w.Take();
    return frame;
  };
  auto expect_invalid = [](const Frame& frame, const std::string& text) {
    auto msg = FromFrame<MaskedVectorMsg>(frame);
    ASSERT_FALSE(msg.ok());
    EXPECT_EQ(msg.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(msg.status().message().find(text), std::string::npos)
        << msg.status().ToString();
  };
  // p, 2^127 and all-ones: each is the second element, named by index.
  const uint64_t ones = ~uint64_t{0};
  const std::pair<uint64_t, uint64_t> hostile[] = {
      {ones, ones >> 1}, {0, uint64_t{1} << 63}, {ones, ones}};
  for (const auto& [lo, hi] : hostile) {
    SCOPED_TRACE(std::to_string(hi) + ":" + std::to_string(lo));
    expect_invalid(frame_with(lo, hi),
                   "field element 1 is not below the modulus");
  }
  // p - 1 parses.
  const Frame good = frame_with(ones - 1, ones >> 1);
  ASSERT_TRUE(FromFrame<MaskedVectorMsg>(good).ok());
  // A count one past the payload fails before anything is allocated.
  Frame over = good;
  over.payload[12] = 3;
  expect_invalid(over, "field vector count exceeds payload");
  // So does a payload one byte short of its count.
  Frame short_frame = good;
  short_frame.payload.pop_back();
  expect_invalid(short_frame, "field vector count exceeds payload");
  // A trailing byte after the last element is rejected too.
  Frame trailing = good;
  trailing.payload.push_back(0);
  expect_invalid(trailing, "trailing bytes");
}

TEST(MessageDecodeTest, CorruptedNestedCountsRejected) {
  OtSlotsMsg slots;
  slots.phase_tag = 1;
  slots.slots = {{{1, 2, 3}}};
  Frame frame = ToFrame(slots);
  // Inflate the user count field (bytes 8..11 after the phase tag).
  frame.payload[8] = 0xFF;
  frame.payload[9] = 0xFF;
  EXPECT_FALSE(FromFrame<OtSlotsMsg>(frame).ok());
}

TEST(MessageDecodeTest, CorruptedPackedCipherFrameRejected) {
  // A packed silo-cipher frame whose advertised model dim was tampered
  // with still parses at the codec layer (dim is just a u32), but a
  // truncated cipher vector must fail before any BigInt is half-read.
  SiloCipherMsg cipher;
  cipher.phase_tag = MakeMaskTag(MaskPhase::kRoundWeighting, 1);
  cipher.silo_id = 0;
  cipher.dim = 8;           // model dim 8 packed at k=4 ...
  cipher.cipher.assign(2, BigInt(1) << 100);  // ... into 2 ciphertexts
  Frame frame = ToFrame(cipher);

  // Truncate mid-vector: the trailing-bytes/underflow checks must fire.
  Frame truncated = frame;
  truncated.payload.resize(truncated.payload.size() - 5);
  EXPECT_FALSE(FromFrame<SiloCipherMsg>(truncated).ok());

  // Inflate the vector count beyond the payload.
  Frame inflated = frame;
  // Layout: u64 tag (8) + u32 silo (4) + u32 dim (4) + u32 count.
  inflated.payload[16] = 0xFF;
  inflated.payload[17] = 0xFF;
  EXPECT_FALSE(FromFrame<SiloCipherMsg>(inflated).ok());

  // Flipping a dim byte still parses here — the server's slot-layout
  // cross-check (PackedDim(dim) == cipher count) is what rejects it.
  Frame bad_dim = frame;
  bad_dim.payload[12] ^= 0x01;
  auto parsed = FromFrame<SiloCipherMsg>(bad_dim);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed.value().dim, cipher.dim);
}

TEST(MessageDigestTest, DigestSeparatesConfigs) {
  ProtocolConfig a;
  uint64_t base = ProtocolWireDigest(a, 3, 10);
  EXPECT_EQ(base, ProtocolWireDigest(a, 3, 10));  // deterministic
  ProtocolConfig b = a;
  b.n_max = a.n_max + 1;
  EXPECT_NE(base, ProtocolWireDigest(b, 3, 10));
  ProtocolConfig c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(base, ProtocolWireDigest(c, 3, 10));
  EXPECT_NE(base, ProtocolWireDigest(a, 4, 10));
  EXPECT_NE(base, ProtocolWireDigest(a, 3, 11));
  // The packing layout is part of the wire contract.
  ProtocolConfig d = a;
  d.pack_slots = 4;
  EXPECT_NE(base, ProtocolWireDigest(d, 3, 10));
  ProtocolConfig e = a;
  e.pack_clip = a.pack_clip * 2;
  EXPECT_NE(base, ProtocolWireDigest(e, 3, 10));
}

TEST(MessageDigestTest, ConfigCodecRoundTripsTheWireFields) {
  // One layout serves the join digest and transcript metas: every
  // wire-relevant field survives, chunk sizes come back resolved, and the
  // party-local thread count is not stored.
  ProtocolConfig config;
  config.paillier_bits = 768;
  config.n_max = 9;
  config.precision = 1e-8;
  config.seed = 0x0123456789ABCDEFull;
  config.ot_slots = 4;
  config.sample_rate = 0.25;
  config.ot_group_bits = 192;
  config.num_threads = 3;
  config.pack_slots = 2;
  config.pack_clip = 16.0;
  config.stream_chunk_users = 5;
  WireWriter w;
  AppendProtocolConfig(w, config);
  WireReader r(w.buffer());
  auto back = ParseProtocolConfig(r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  const ProtocolConfig& b = back.value();
  EXPECT_EQ(b.paillier_bits, 768);
  EXPECT_EQ(b.n_max, 9);
  EXPECT_EQ(b.precision, 1e-8);
  EXPECT_EQ(b.seed, config.seed);
  EXPECT_EQ(b.ot_slots, 4);
  EXPECT_EQ(b.sample_rate, 0.25);
  EXPECT_EQ(b.ot_group_bits, 192);
  EXPECT_EQ(b.num_threads, ProtocolConfig{}.num_threads);
  EXPECT_EQ(b.pack_slots, 2);
  EXPECT_EQ(b.pack_clip, 16.0);
  EXPECT_EQ(b.stream_chunk_users, 5);
  EXPECT_EQ(b.stream_chunk_coords, StreamChunkCoords(config));
  EXPECT_EQ(ProtocolWireDigest(b, 3, 10), ProtocolWireDigest(config, 3, 10));

  std::vector<uint8_t> cut = w.buffer();
  cut.pop_back();
  WireReader short_reader(cut);
  EXPECT_FALSE(ParseProtocolConfig(short_reader).ok());

  // Chunk sizes must arrive resolved, so each config has one encoding:
  // a coordinate chunk with streaming off, none with streaming on, or a
  // chunk count past INT_MAX is refused.
  ProtocolConfig off;
  WireWriter off_writer;
  AppendProtocolConfig(off_writer, off);
  const size_t coords_at = off_writer.buffer().size() - 4;
  const size_t users_at = coords_at - 4;
  auto patched = [&](size_t at, uint32_t value) {
    std::vector<uint8_t> bytes = off_writer.buffer();
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    return bytes;
  };
  for (const auto& bytes :
       {patched(coords_at, 5), patched(users_at, 0x80000000u)}) {
    WireReader reader(bytes);
    auto parsed = ParseProtocolConfig(reader);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  std::vector<uint8_t> no_coords = patched(users_at, 2);
  WireReader reader(no_coords);
  EXPECT_FALSE(ParseProtocolConfig(reader).ok());
}

TEST(MessageTagTest, CheckPhaseTagValidatesPhaseAndRound) {
  uint64_t tag = MakeMaskTag(MaskPhase::kRoundWeighting, 12);
  EXPECT_TRUE(CheckPhaseTag(tag, MaskPhase::kRoundWeighting, 12).ok());
  EXPECT_FALSE(CheckPhaseTag(tag, MaskPhase::kRoundWeighting, 13).ok());
  EXPECT_FALSE(CheckPhaseTag(tag, MaskPhase::kOtSlotChoice, 12).ok());
}

}  // namespace
}  // namespace net
}  // namespace uldp
