#include "factor/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/parallel_solve.hpp"
#include "support/error.hpp"

namespace spc {
namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void FingerprintHasher::mix(std::uint64_t v) {
  ++count_;
  h1_ = mix64(h1_ ^ (v + 0x165667b19e3779f9ULL * count_));
  h2_ = mix64(h2_ + (v ^ 0x27d4eb2f165667c5ULL) + count_);
}

void FingerprintHasher::mix_double(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

void FingerprintHasher::mix_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  mix(static_cast<std::uint64_t>(bytes));
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    mix(word);
    p += 8;
    bytes -= 8;
  }
  if (bytes > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, bytes);
    mix(word);
  }
}

Fingerprint FingerprintHasher::digest() const {
  // Finalize copies so the hasher can keep streaming after a digest.
  Fingerprint f;
  f.hi = mix64(h1_ ^ mix64(h2_ ^ count_));
  f.lo = mix64(h2_ ^ mix64(h1_ + count_));
  return f;
}

std::string Fingerprint::to_hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string s(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const unsigned byte = static_cast<unsigned>((word >> shift) & 0xff);
    s[static_cast<std::size_t>(2 * i)] = kDigits[byte >> 4];
    s[static_cast<std::size_t>(2 * i + 1)] = kDigits[byte & 0xf];
  }
  return s;
}

namespace {

void mix_matrix(FingerprintHasher& h, const SymSparse& a) {
  h.mix(static_cast<std::uint64_t>(a.num_rows()));
  h.mix_bytes(a.col_ptr().data(), a.col_ptr().size() * sizeof(i64));
  h.mix_bytes(a.row_idx().data(), a.row_idx().size() * sizeof(idx));
  h.mix_bytes(a.values().data(), a.values().size() * sizeof(double));
}

}  // namespace

Fingerprint fingerprint_matrix(const SymSparse& a) {
  FingerprintHasher h;
  mix_matrix(h, a);
  return h.digest();
}

Fingerprint fingerprint_problem(const SymSparse& a, const SolverOptions& opt) {
  FingerprintHasher h;
  mix_matrix(h, a);
  h.mix(static_cast<std::uint64_t>(opt.ordering));
  h.mix(static_cast<std::uint64_t>(opt.block_size));
  h.mix(static_cast<std::uint64_t>(opt.blocking));
  h.mix(static_cast<std::uint64_t>(opt.block_cap));
  h.mix(opt.amalgamate ? 1 : 0);
  h.mix_double(opt.amalgamation.max_zero_fraction);
  h.mix(static_cast<std::uint64_t>(opt.amalgamation.max_width));
  h.mix(static_cast<std::uint64_t>(opt.amalgamation.always_merge_width));
  h.mix_i64(opt.amalgamation.max_small_zeros);
  h.mix(static_cast<std::uint64_t>(opt.pivot_policy));
  h.mix_double(opt.pivot_delta);
  h.mix(static_cast<std::uint64_t>(opt.precision));
  return h.digest();
}

namespace {

constexpr std::uint32_t kMagic = 0x53504346;  // "SPCF"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Every rejection of file content is malformed input.
void require(bool ok, const std::string& what) {
  if (!ok) {
    throw Error("load_factorization: " + what, ErrorKind::kMalformedInput);
  }
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  require(static_cast<bool>(in), "truncated stream");
  return v;
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  write_pod<i64>(out, static_cast<i64>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

// Reads in bounded chunks, growing the vector only as bytes arrive, so a
// corrupt length fails as truncation instead of sizing an allocation.
template <typename T>
std::vector<T> read_vec(std::istream& in) {
  constexpr i64 kChunk = i64{1} << 16;  // elements per read
  const i64 n = read_pod<i64>(in);
  require(n >= 0 && n < (i64{1} << 40), "corrupt vector length");
  std::vector<T> v;
  for (i64 done = 0; done < n;) {
    const i64 step = std::min(kChunk, n - done);
    v.resize(static_cast<std::size_t>(done + step));
    in.read(reinterpret_cast<char*>(v.data() + done),
            static_cast<std::streamsize>(step * static_cast<i64>(sizeof(T))));
    require(static_cast<bool>(in), "truncated stream");
    done += step;
  }
  return v;
}

// Bytes from the read position to the end of a seekable stream; -1 when
// the stream cannot seek.
i64 bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  return static_cast<i64>(end - here);
}

// One block: its (rows, cols) header, then rows x cols column-major values.
void write_block(std::ostream& out, const double* m, idx rows, idx cols) {
  write_pod<idx>(out, rows);
  write_pod<idx>(out, cols);
  out.write(reinterpret_cast<const char*>(m),
            static_cast<std::streamsize>(static_cast<std::size_t>(rows) * cols *
                                         sizeof(double)));
}

// Reads a block into its arena slot; the header must match the shape the
// structure gives the block before any of its data is read.
void read_block(std::istream& in, double* m, idx rows, idx cols) {
  const idx r = read_pod<idx>(in);
  const idx c = read_pod<idx>(in);
  require(r == rows && c == cols, "block shape does not match the structure");
  in.read(reinterpret_cast<char*>(m),
          static_cast<std::streamsize>(static_cast<std::size_t>(rows) * cols *
                                       sizeof(double)));
  require(static_cast<bool>(in), "truncated block data");
}

}  // namespace

std::vector<double> SavedFactorization::solve(const std::vector<double>& b) const {
  SPC_CHECK(static_cast<idx>(b.size()) == structure.part.num_cols(),
            "SavedFactorization::solve: size mismatch");
  std::vector<double> pb(b.size());
  for (std::size_t k = 0; k < b.size(); ++k) {
    pb[k] = b[static_cast<std::size_t>(perm[k])];
  }
  block_solve_panel(factor, pb.data(), 1);  // in place: pb becomes P x
  std::vector<double> x(b.size());
  for (std::size_t k = 0; k < b.size(); ++k) {
    x[static_cast<std::size_t>(perm[k])] = pb[k];
  }
  return x;
}

void save_factorization(std::ostream& out, const std::vector<idx>& perm,
                        const BlockStructure& bs, const BlockFactor& f) {
  SPC_CHECK(f.structure == &bs, "save_factorization: factor/structure mismatch");
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  write_vec(out, perm);
  write_vec(out, bs.part.first_col);
  write_vec(out, bs.part.block_of_col);
  write_vec(out, bs.part.sn_of_block);
  write_vec(out, bs.rowptr);
  write_vec(out, bs.rowidx);
  write_vec(out, bs.blkptr);
  write_vec(out, bs.blkrow);
  write_vec(out, bs.blkoff);
  write_vec(out, bs.blkcnt);
  const idx nb = bs.num_block_cols();
  for (idx j = 0; j < nb; ++j) {
    write_block(out, f.diag(j), bs.part.width(j), bs.part.width(j));
  }
  for (idx j = 0; j < nb; ++j) {
    for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) {
      write_block(out, f.offdiag(e), bs.blkcnt[e], bs.part.width(j));
    }
  }
  SPC_CHECK(static_cast<bool>(out), "save_factorization: write failed");
}

SavedFactorization load_factorization(std::istream& in) {
  require(read_pod<std::uint32_t>(in) == kMagic, "not a factorization file");
  require(read_pod<std::uint32_t>(in) == kVersion, "unsupported version");
  SavedFactorization out;
  out.perm = read_vec<idx>(in);
  BlockStructure& bs = out.structure;
  bs.part.first_col = read_vec<idx>(in);
  bs.part.block_of_col = read_vec<idx>(in);
  bs.part.sn_of_block = read_vec<idx>(in);
  bs.rowptr = read_vec<i64>(in);
  bs.rowidx = read_vec<idx>(in);
  bs.blkptr = read_vec<i64>(in);
  bs.blkrow = read_vec<idx>(in);
  bs.blkoff = read_vec<i64>(in);
  bs.blkcnt = read_vec<idx>(in);
  try {
    bs.validate();
  } catch (const Error& e) {
    throw Error(std::string("load_factorization: corrupt block structure: ") +
                    e.what(),
                ErrorKind::kMalformedInput);
  }
  const idx n = bs.part.num_cols();
  require(static_cast<idx>(out.perm.size()) == n,
          "permutation length does not match the structure");
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const idx p : out.perm) {
    require(p >= 0 && p < n && seen[static_cast<std::size_t>(p)] == 0,
            "ordering is not a permutation");
    seen[static_cast<std::size_t>(p)] = 1;
  }
  // On a seekable stream every block the structure claims must be present
  // before the arena is allocated, so a small file cannot demand a large
  // allocation.
  const idx nb = bs.num_block_cols();
  i64 elems = 0;
  for (idx j = 0; j < nb; ++j) {
    const i64 w = bs.part.width(j);
    elems += w * w;
    for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) elems += w * bs.blkcnt[e];
  }
  const i64 headers = (nb + bs.num_entries()) * 2 * static_cast<i64>(sizeof(idx));
  const i64 left = bytes_left(in);
  require(left < 0 || (left >= headers &&
                       (left - headers) / static_cast<i64>(sizeof(double)) >= elems),
          "truncated block data");
  // The blocks go straight into one arena laid out like an engine's; the
  // file stores every diagonal block first, then the entries in order.
  const BlockArenaLayout layout = compute_block_arena_layout(bs);
  const FactorArena<double> arena(bs, layout, nullptr);
  for (idx j = 0; j < nb; ++j) {
    read_block(in, arena.diag(j), bs.part.width(j), bs.part.width(j));
  }
  for (idx j = 0; j < nb; ++j) {
    for (i64 e = bs.blkptr[j]; e < bs.blkptr[j + 1]; ++e) {
      read_block(in, arena.entry(e), bs.blkcnt[e], bs.part.width(j));
    }
  }
  out.factor = arena.to_factor();
  return out;
}

void save_factorization_file(const std::string& path, const std::vector<idx>& perm,
                             const BlockStructure& bs, const BlockFactor& f) {
  std::ofstream out(path, std::ios::binary);
  SPC_CHECK(out.good(), "save_factorization: cannot open " + path);
  save_factorization(out, perm, bs, f);
}

SavedFactorization load_factorization_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPC_CHECK(in.good(), "load_factorization: cannot open " + path);
  return load_factorization(in);
}

}  // namespace spc
