// Crypto known-answer and property tests: SHA-256 (NIST FIPS 180-4 vectors,
// a pattern table over every padding length, both compression kernels),
// HMAC-SHA256 (RFC 4231 vectors), Merkle trees, authenticators, addresses.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/address.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"

namespace gpbft::crypto {
namespace {

// --- SHA-256 known answers -----------------------------------------------------
//
// The NIST vectors go through whichever kernel this CPU selected and through
// the portable kernel directly.

// SHA-256 through the portable kernel with the padding written out here, so
// it shares no code with Sha256 and does not trigger kernel selection.
Hash256 portable_sha256(std::string_view message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::sha256_compress_portable(state.data(), padded.data(), padded.size() / 64);
  Hash256 out;
  for (std::size_t i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

TEST(Sha256, EmptyString) {
  const std::string expected = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  EXPECT_EQ(sha256("").hex(), expected);
  EXPECT_EQ(portable_sha256("").hex(), expected);
}

TEST(Sha256, Abc) {
  const std::string expected = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  EXPECT_EQ(sha256("abc").hex(), expected);
  EXPECT_EQ(portable_sha256("abc").hex(), expected);
}

TEST(Sha256, TwoBlockMessage) {
  const std::string message = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const std::string expected = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  EXPECT_EQ(sha256(message).hex(), expected);
  EXPECT_EQ(portable_sha256(message).hex(), expected);
}

TEST(Sha256, MillionAs) {
  const std::string expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(ctx.finalize().hex(), expected);
  EXPECT_EQ(portable_sha256(std::string(1000000, 'a')).hex(), expected);
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string message = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : message) ctx.update(std::string_view(&c, 1));
  EXPECT_EQ(ctx.finalize(), sha256(message));
}

TEST(Sha256, BoundarySizesConsistent) {
  // Exercise the padding logic at block boundaries (55/56/63/64/65 bytes).
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const std::string message(len, 'x');
    Sha256 a;
    a.update(message);
    Sha256 b;
    b.update(message.substr(0, len / 2));
    b.update(message.substr(len / 2));
    EXPECT_EQ(a.finalize(), b.finalize()) << "length " << len;
  }
}

// SHA-256 of the pattern byte i = (31*i + 7) mod 256 at every length from 0
// to 200 — every padding case: a tail that fits its block, one that spills
// into a second, whole blocks — and at 1000 and 4096 bytes. Generated once
// with Python's hashlib:
//   python3 -c "import hashlib;p=lambda n:bytes((31*i+7)%256 for i in range(n));[print(f'    {{{n}, \"{hashlib.sha256(p(n)).hexdigest()}\"}},') for n in [*range(201),1000,4096]]"
struct PatternAnswer {
  std::size_t length;
  const char* hex;
};
constexpr PatternAnswer kPatternAnswers[] = {
    {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879"},
    {2, "140d811b81973993df99b8b1742b383ab83f6f52bf7af850812e7bba02ff11da"},
    {3, "647674a296197442f518bcca323ec605dd8d098b2d4f22ee1fdcdd2bb753a189"},
    {4, "b999f79c534a332dfb989ab78cda3d1967c16133ca1d668cf62737f8d768962f"},
    {5, "a7fed79902b79407088f9cc6584f7506f82d8be43dc419ff5ab1969dfdd245f5"},
    {6, "35a9838ae94607ca89c07791a9682ba4a7a4ac9a30f262439c067eeb64ae2ad1"},
    {7, "13ce3403bf0ec804d44556f2fce6a75e4117680fb8791e7bc631bb7ef0d13550"},
    {8, "4fb900ca3f5832fcc475b79bf07217bf0edfe9d39ea10f5cf624246ff68b47de"},
    {9, "1a4d14ade81567725e079c6fc24507fefef27d92c7ac4086d9f74b89ef2f0aa4"},
    {10, "49e62c55d4996b5c5092f67f3ca52e954e37310cd3e07a25be69d3f1b8d2fd98"},
    {11, "b1ea037a5a2028c5faa5eb98708424f1ac7896731528711341f236d8c19cabd1"},
    {12, "d255aafa782c787b223925cbe2cc9d234ee70cea08b951f0b0c0b3f8b82e0916"},
    {13, "dc898e8ef5663ef7a22697ee877b3c4d62ac6f2a60d87187432172e46ece2cc4"},
    {14, "4327538c6f8ae469aa369a03eddf44f38c784d258bbccb6e1a571adaa0ad9d9a"},
    {15, "45d2755c5c700f214e3422972d36e5de4416645f498926ac719fae09605c09f4"},
    {16, "f087c7ff57988205ab8885ecbfca8a77c96e91b213bdaba91143fbcd62997713"},
    {17, "b6ff0191041cc77b1ef514adaed53fdd247fd43221a629d3d7c91d14e21038a3"},
    {18, "df1d155105ed3fd5a96ac0cc8a03757b8b129af594f42415eb239a4b4bc75767"},
    {19, "b8c31728a52aa1d6dc0c74c313c5920752a3e4b6aee9af80355626e46425d870"},
    {20, "3d9862867e0f08fe66a4a8060f470d25cfb1dbf7705249bc343df0ae24aff0c0"},
    {21, "fbb90f5e6853482c6429452998cfd075da3a022b888fe1656fa06db254a5febd"},
    {22, "8f98945d76a89645faec1fa8423320e1c667fe187010df451ec31aef07ac92bc"},
    {23, "e37502a8c138a926769fa31e1f8897d8c8ce9869acbc47a08228c10733bd4a7f"},
    {24, "534ed31261a5fa7479dfdf11a17fd67c54f97f709c8d0cbc7d6cede4250848ab"},
    {25, "62394da95c50caab10618ac4b91e5855e5d6070fdbc4f3fcf236ad6131552a01"},
    {26, "476f63083003ae90ee93820b6424e7fe7225295d1df672f1980cda7611c7525d"},
    {27, "c254534705c4b62acfdb7559129a2fe1f4a6357f29adb2ce0272a5850ec18779"},
    {28, "44e10749b735119d2bb8a035ab9e80feaf2d70ff0cb4ff81009a7164ea7ef158"},
    {29, "635d558662aa3a0a816409012f1ebddd3e97e5b47b104ce3cf2fa51eac6ba03c"},
    {30, "96c7f171376cadae5507a4e86f209ecae9803c573b4c12ce092cd3a406753ee0"},
    {31, "5e5f9fa56d6337115e86a2508477e87c7d5296d0b0743ecfde2d0caeed2db37d"},
    {32, "8e889f10b21cdd1b3ad72f740317a827d76e1b5b3f721e33c566f06d1deff8ea"},
    {33, "93462e85c42aa037bc727a8c283497594aa5c844f0e5bccaa52fec34dee9f44e"},
    {34, "7eacf4e83a0c0f6a275d8638bb4139f57032be7f92faf18061ab123956e839f7"},
    {35, "694e74e19ea404ce1fa456cd86a21805c1d5e3b9ddddac82049e1930f7916207"},
    {36, "1b0e5a6e99cf2857502ea95e3c9fd8623a7b97c736d2a3ea51007cc8f4e4459d"},
    {37, "1de539554304369f30c38f449ff784bd5631da1c116826ad6bf9eb941b4def8a"},
    {38, "919d8c7274eabf2f23564d1ffaff05432563380a336ad020c475ede6f8e758db"},
    {39, "4673c1ba5e3149dc9378b6991aad7fc5b9eea309128de482e41a4a26b1014253"},
    {40, "0069ba1486c68c9d9b6696145417e15d575490572a589cb90295d1d646ab168d"},
    {41, "713465c48d1af54b1ec09afeb0ff1d2c1d903e2209e6456cb1bb406feadbdadd"},
    {42, "d59b89452cfe95dea27e9ceb867031c0d1b009b7a34f7f9579033de9fb1b7025"},
    {43, "cb2918c166fc0ce29240404ded678790ec1ed1081a44451b12db86af947409dd"},
    {44, "c6c2394c8738d718c9267fa44a604af1730c3eee5b49206eb0b3afe51fb9094f"},
    {45, "70e67c7bb6676134b17de565343d978e42a4d9c451081b52dd7305d39db8998f"},
    {46, "efe965a979e8ea0af2bc644f948b5d9ff44aa32c9ef16696e7c39b43bd34eccc"},
    {47, "0b87b79f91e5d8b08a2b987530d2661a815cb36051d1d9de643d9b77f8b0000d"},
    {48, "dfdea792658d9e37734453208d20a69207f91e45b38ba9fb35d6a855cbcaa859"},
    {49, "133936d4a4bdf0845e1a7f6eec060132a2b4f9ca028e891cc9d491f588cdf0a5"},
    {50, "9482749d4936c40304ce3449d92fd738a8bb2919dcfb63ef738a19e3a3b01d04"},
    {51, "ef91e8e4033ca1960bfd6b772d4992f661954e6285ec81c8abe8d89e2fc8a04a"},
    {52, "56d20b3f0c9a4610c8f555349d5a1acbd77f4ae92e3e1052562e1df97c1831bb"},
    {53, "6018db3f8d14f3b05f0ca750fd780750808dd09a23128cdd80a81251b2c5d519"},
    {54, "c802146d5788fb540fbf29d8ff485730ad10f4f13b78961c032e78691b582647"},
    {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
    {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
    {57, "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d"},
    {58, "b077ebeb8236a3aadb7f9f3fac9bf78df7e2ae0e8ca49d19f36914c66c2421ea"},
    {59, "52c10381fbaf5149f1c9a1df701baea05f74df32b80fa073943df58b61942ca2"},
    {60, "0cd53cd7093df4c301a67b8072a805e69508d9336a4a237f760dd989994fe7a2"},
    {61, "e8e5a95dd7d96e970954472cc2ed73edca2c48c710048b858c31996ce769a382"},
    {62, "8a670c7c037c3947aa18d2a2a717c1814a210f51ea22138c5bc43d5e09f63db7"},
    {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
    {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
    {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
    {66, "c24f29299c40d868cd7b1f5de6af00827b1a8454ed22256f8fad0a23651d8cb3"},
    {67, "978d3882da4335d999565e8f6a1ad3c67d05d13200305ca88b71c15a6e3e85c8"},
    {68, "73205e7093c6b53b335bcedba2eeea7ae1f9d2fa189709ff17c2c70b11c758b3"},
    {69, "0bc9554f0d0db189aedc00e391072ca3f9727d8b00b83fb701f0569066c01ffa"},
    {70, "d9c27945a73a9005b52f13594479b695ed1c4e96f764e62a19ea2e32af9b44e5"},
    {71, "b4d079c3da387729008e096f129032366ba3b1b13f07c57352afd083824d1de9"},
    {72, "9c6db2e3af616bebc9de6e90f9d1be29621157db8a0718aa2fe36d84fc451f87"},
    {73, "5289296269eaf1e62e77cff45f520309cb0a5d5ac7290e09be5714cb3602ffb2"},
    {74, "7bf9fa01704b1fc3a5aedb1cc286a29f2c1f380a6ef5c50f6e208e8e86b34b01"},
    {75, "56b127f7acfa1c21854e9f44179d88588f68be841c0dbaba735f65f94ba42207"},
    {76, "c30425ba5122022f0cb5f2b85fddfff45900e6e7f3bc4a064fa5bb771a3fc288"},
    {77, "2b5636493c358e72d577ce8afbeb79e6757c188a6fd31d029a2821e85542833b"},
    {78, "677f8cc982301dc75b9b988799379e69b7b676b117d886466692081cb33c0bc3"},
    {79, "9f419c1f641a930b61e7861f11c3dd716bc05991a072efb8b5bbef7436d19aa2"},
    {80, "b26499a826b8b46533c2d582cd456c0c3ef988e52c4f2af931b44baaf18de26c"},
    {81, "2cbbfa85a5052ffdf904ef426414e11201bf118874ace71e173822b1f037d38b"},
    {82, "5ee37ccff83bb4c9590fbb0ed39bbf48cabcbc5af621793c3bde3140c24e805d"},
    {83, "d148a9b0b08ada1301de8deaf952ed6d9ef8722928d57d2dc6104ed4eb3a1a47"},
    {84, "a73b761738961969a2dd7b875bdd38fcd0b1abea466bda5872f5bf1de8511d84"},
    {85, "210e074eadded47ed7cb727d9748bd14cafda623bc6947cc1e6302688da64d22"},
    {86, "a305fec92849b9c0765508d5010aff39ff3126e4ff4e10072199d8c02ce8defe"},
    {87, "ad5d8afb4c5cebec996abb96f7e9a1341c4b30db6d105dbb081d98454cfc7a6b"},
    {88, "efec7be79a6481cece434f8b463bc7800d10b8208c93b4fcc8c71f7f6701f71e"},
    {89, "61208160d58e9662571cda06cb9714095edf50393caee99cb75c5a26f488e19b"},
    {90, "2510bce9f3bed86186f4a98def953dad75bb13a89356426603a22f81c9ea5768"},
    {91, "25430c9c296d09c08f26d7efd74da726e8b705275e7a212a1fbf9d611c54c84f"},
    {92, "087ae647d38e728654b8d64960b8b59f31e46f98186f36e2e6a87e9ff6a6418d"},
    {93, "faced2ae498e7cce764c5f3c6a59610ec089b9d8ab67a2f81c1fca0b4403934e"},
    {94, "9d362998ae54695e7f832df638a353822f1283a49118f908703fdb0803509424"},
    {95, "d8c1f906be7970fa1b45890c5b45f94564ce77dd02bdb8cf0b869ca0afaa89e5"},
    {96, "d6c2773235f3785b4cf0f2b11861675cfd7f2a033ae69df9009cce1a787188b7"},
    {97, "15218c39030268e3258c9d4a8d3f284885a3784d0a0eb64d0e3ff99630457198"},
    {98, "c0744ab5ad80d3d6b460729c98230900a31d8c458ea5b462c79ed8a255e230a4"},
    {99, "717c23feab1f6a3a42269fc90b88799a1634028b67423f14b8602498bb952546"},
    {100, "c22e490daa445fb2fba44278c022df135310fd278cabca4ad7919eddcccd1dce"},
    {101, "e074ec684ae30cd662349906698baedc326789d9048ddd3dc1d43c6fcd5ab215"},
    {102, "52b5aad34021e9763bd2f719103edc8792bbf1250064eaaeab3b618cb31f1605"},
    {103, "e571c2a147c1eceec5dd8b6aeb1889aae50ea41b623d3026abc665acff5201f9"},
    {104, "23741790d156ecb2e1f43040faf528c96695945ff60b140c017b18137ca88888"},
    {105, "b9eeabc1150408b0798f41474ca2631a1e1d21d596db4420f3e23a2e05b3d9e3"},
    {106, "5d996879165390ac46419c0d499872248af518d37f368517d601e9404dd4e543"},
    {107, "49b9f17a7f3c6d94ae8b82ae9f94f367750c2c96b5b3e512c0c70cc818caf741"},
    {108, "189fbfd57dd81e95f3328c00adf69cc226c6c6081b21dc12f60ee1505d8d966c"},
    {109, "28ff771381251bcd442093a809a61095f53d6b83b7df9e59d142570bfc2a2835"},
    {110, "fe47c5a8d830476f3857f334a8a6d25f51270b9ab6f5d6dfaf5cb87b57c7aa91"},
    {111, "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45"},
    {112, "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e"},
    {113, "6f184b6619128e865ecb2b3ea96c03d461f0664d87689480988dbee53a449161"},
    {114, "81a8edf98294aab58cd1624aa4eca96e7f12de7de41005d08a5dc160a3c66ed6"},
    {115, "acb4c84cb17d887b3411a138a357b52be28f487418f65a0c5dc3b11a1337ec6f"},
    {116, "0d6a9d84e67cb35fb772c46763b46b72e229b5f76663c5ed53343424775ad100"},
    {117, "af7b162f08dae5e87b4008e21010c646a576e3372d6814edd32f9d01949deca9"},
    {118, "e96230c1485dd2e36f02f30932b0e2acf725283090cfdd8c58fce6bf523edd26"},
    {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
    {120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
    {121, "614571410beab3df68d50132a341d338575653da8374c630441bbe380b9b3136"},
    {122, "d728ad2179214f0cb2b01d264d8b7fb26893e310599d5d419c7a9f92ca293664"},
    {123, "893ef3f88cf4382f5d660f694b6b4213960adffa842aca38988fcbc7ea5b58dc"},
    {124, "2a4c07c863a78da189481963834179ff348b51630ccf098b923d871ff748403d"},
    {125, "5ef8fed0986749855f87f2125e13fe813d9c1428ef0ef36bf49395b53d14c85a"},
    {126, "5aa67f561ca036a72db939b4d4b14975505f08fc1564036822a1639a5b09dfb8"},
    {127, "192409cd280e14b743642ad1343fbd3e82d9305de72c078117745a679210cc3d"},
    {128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
    {129, "81e89a7b2911aaa7795f9e3d4910cb47d6cd2b00d83b8399481527261a1a7519"},
    {130, "1c7c3b5eee94d4fa8b41754b89153e50491838d0d3e49b0273d6f12cae12e387"},
    {131, "18769e5eba4eee253e84312bf5b108061fb60c21fa952447245a577eae6795fd"},
    {132, "a5410f75af642052ed7e8e414b61953227f4d8a3faea3422c35ad4a5baacf4bc"},
    {133, "764f3f0931be1a7d79b3b1e18778ee744d6db830e61e738b5910efe3dd0ea7d6"},
    {134, "888813803b4f71323a995835cfa5cce686bd14801a08b3471e953d4fe017e4f1"},
    {135, "8dc4c3808177a1929f7a7bbb69357dc0df4ddd4f52982df5557e1620d67e63ff"},
    {136, "c24b158fded40acdd875625ecbf3733ac2056516bf20a20c920404d4ca720ba6"},
    {137, "3e28a29dd0249f4b8b9c78d1a497b28885bf4b69ee8fcdc6b6140987d6b76dc3"},
    {138, "2e9719b2d7aee22146160956be7fdd6f0e5bf58763699d4971b26308b5d3cdc0"},
    {139, "97e1f04b02430b9fdfccbbe14b4cd2c6bea1d429b5677616a34f49877acf89da"},
    {140, "39c1c0b83952c4c9a81acce56a0f0e986a7836fcfdf390d7928d8ed577874a03"},
    {141, "c6f81b97015569f181442f8f2fc1e9e8ed5ee70fc1a49b43f8b8a26d0b5f4e02"},
    {142, "7e94c204a36634c4ae4898af321f156bfbab00f77ae0a7e4ef0bbe80702219a4"},
    {143, "954a89c22379c8c8d3873d7629d999b17c20a918a58df017d46ea4dbacd82cab"},
    {144, "8e199690f08da68d684a89e782ecb9523b6f7eba20503f4f85307cf090cba03c"},
    {145, "382cce968006fb1bd57dd434379c2790c79cbb4f19c609aad9707de281d01d94"},
    {146, "e234bd7ecd628ba3c190456fb3f141688fe5d2f976bff6618795f4e5ff07cb35"},
    {147, "ee9795ce4f78e8f8d8b7313ce5d4cd84ed1693be41c84577aabc694394189093"},
    {148, "065c1162967d3008f738862862fc01f6e63cc8eecc0849d9c278e5153c19dabe"},
    {149, "f90d15274890783e79d539fb16aa05e68ab17ee1d4099228da2d80de19f20c49"},
    {150, "5eab0cc7b2b5916cc393889854d7cf4d652fc12dec49973113c9d8e4332197fa"},
    {151, "167cbf48d12d456d6e73518b2ba5bf2e05469e0f476e5d686ed219cd646c7059"},
    {152, "aab839f6ef544fa4971d0d5cd61dd73ec9ea579f151f3286cc07d533ad6a94f9"},
    {153, "c758ac549754ad18f07c4931a2d4d394e3d7c7de7ef425bb12ee98760106189c"},
    {154, "e7fe3f3b7086034969d4cfa1b4a947de66fdb678434060d325f83b96dfa4ec7f"},
    {155, "bcaaa9fd348b72ea8969c4adb5fb2575294f7b8c813e2ecabcb673893fe3dc22"},
    {156, "c10579c01a89b262354304ee97601d57873b3a30cb8406edac26d1aa98991a2f"},
    {157, "10727de87d2773a7b679208004ee59140677e031f89222631697b6202abb22a7"},
    {158, "6f87b1ec31c9d8070900ad975750c72deb9b0da38afe4f45c4bba4056ad9f0fd"},
    {159, "348b680dda703d4d84492be7a7d82834bd11879d5cd5f956b9decffc1ec0916d"},
    {160, "10b51fe27d295be662888ffc1a0fbe54e7da565d7e1dadce6ef9628f6bafe7c0"},
    {161, "2c3f74fd4ef37e37c3067bd6263312b75d125787a40ace171e2e9c4972c68bb5"},
    {162, "760c827884597d1716dea31d80458b9fa8a28868e8d2509291b946acdfa8e9cc"},
    {163, "e261ba3883fddb02e67bbbbe432b0dd3d4a9ad3c7107411e7d1abccbc55654d4"},
    {164, "71e03269e0f4b5c35d0312e252c0bb1dd9822caad1cec6f9c0b9f29631b20eae"},
    {165, "d978b218e592e3901597ccd781df344254433ba7c7087c8c785d25d764072ef5"},
    {166, "2908cac0b21b0b76a53932712fb52ad0f5fd00a7bb8dcaa25764002101915774"},
    {167, "0f4555a9609cccbf2f1df0857ab09e94546b4a66f71f062445311aaf89e4f0aa"},
    {168, "353dc2015e200bcb38eba6890db85c611a905540b69392c342ac6d8fc7243302"},
    {169, "2693c62048824b3a7a42b36d20357f870f596b6191b7da05f79bed83ce94b45e"},
    {170, "6980341780cf937954bb988f607405ae321358ba7cffa8128d87007ec13b751a"},
    {171, "55d7b8b6e738d95dbddacca9defc117d0276e376d0dd8bb130811240125fd53d"},
    {172, "80384da4a0b9c37887b9b3940b432eeb8a8913600f099ad32d067507beb9948c"},
    {173, "95d7d8ea38bbb219339ce00ae1dee1b13c6841afb37348b0675544279016e479"},
    {174, "d2ab9c5ec6076dbe44b91add6a27c605d8e9fddaca350eb36a187acf9bb3f633"},
    {175, "701d3dae8ec02f216f73e60ac46490cb945ebe91965993789fa11d2c5d7694ed"},
    {176, "58df018f5b17dbfc0f27e2f3e60c0118dfd1f537b2fdefb1140640f1050410fc"},
    {177, "a1b11dc013e81f62b32567b312ec7984d376d9b1e87e035b221c9cadd400d815"},
    {178, "deeb81ef7d9ccfc4f0f418d3f9c411f839bc1837bab857025ef8da84fc55d442"},
    {179, "b5bb851176acd354716bc554fd63368128d1d91310fd93bf6aa6334feb390cc6"},
    {180, "51a698ddb018a6410222c2fe140a22a7acfd0e13e60331a047adcbf64a6356a5"},
    {181, "bbc9e4ba37b293a192591d17e121550d69b06f182093314ca7acc9070b5d818d"},
    {182, "5ed34fa086dc6f3049923925507962e846a16346c34415ebcc97621e2a20d88a"},
    {183, "a0687018a48993fa01699bfd35af7ad7722645db72db8cb992ea29879f1f469a"},
    {184, "3fc9f2e46a8dde9185fd546c4082719cd75ded2723835be16a07e61b1dea1595"},
    {185, "96a39fb1d3018e525607a20559aacfb53c34bd696a88bb7fbfb065875977760e"},
    {186, "aa364f12dfc6c201c5f78d9a8a443ebecd8d4b90421b08c05981bbb43942c8c1"},
    {187, "e73dba66ee63c61be311dfee970a0961d6cc2e6ce0693f8f15a3b6d8446cfdc3"},
    {188, "341fc71fe02af0dccfc000c98b2854bb4835ecc859d39f31ffccc4ddd90d1d21"},
    {189, "31767f2adc750b961da57e02a8575f2641e2d140f7ec9cabc517bcb7a082caee"},
    {190, "b245f5216fb8ecd0ddffa1110e8b6ee47e9f74c80bab89d711809c2131852104"},
    {191, "2a30958d124d569d0a4832c608c772181557edbae684ff368be6592d3bf500c7"},
    {192, "6e3a9b4ecba7af3a46e4f5c90fe02c99b5715144444b38049a42ac8313b30346"},
    {193, "87746ac61c76c535aff44356de173c446cae1a259ea678f42af728c00b9aa287"},
    {194, "151bb57a34c56ebe1cedf644d582ffec3532070505fe967aa63c37b37b434800"},
    {195, "a2aca24f9f32c28f1c2580638ae3f51b2d783dfa852da6e199330ecc0b4f392c"},
    {196, "f8ae280945ac9ea24e9c504cae1644d7407f9550f8925ecee28b4aa8e92f80e7"},
    {197, "562ff0b26f1e0550607ac75443bff2c5db789a3609873d973f5754009f283e91"},
    {198, "80172f9659721c154f8ca4c13a2d8ecd4d3fdf68ee253310aaf043da815aa88d"},
    {199, "fbcad5d972e2f0f5cd8b088ee7f1620163668962f5603485971fd6e93a171fc8"},
    {200, "44cae5223d431caed4a9e32271d6abf17c3f2f4abac45fcdb48a99fcc6072a09"},
    {1000, "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179"},
    {4096, "d41d438c379110c7f7b2c561b1f04f26c1b4549110791f8e022f48974280c13e"},
};

std::string pattern_text(std::size_t length) {
  std::string out(length, '\0');
  for (std::size_t i = 0; i < length; ++i) out[i] = static_cast<char>((31 * i + 7) % 256);
  return out;
}

TEST(Sha256, PatternKnownAnswers) {
  for (const PatternAnswer& answer : kPatternAnswers) {
    const std::string data = pattern_text(answer.length);
    EXPECT_EQ(sha256(data).hex(), answer.hex) << "one-shot, length " << answer.length;
    // 13-byte pieces cross every block boundary at a different offset.
    Sha256 pieces;
    for (std::size_t at = 0; at < data.size(); at += 13) {
      pieces.update(std::string_view(data).substr(at, 13));
    }
    EXPECT_EQ(pieces.finalize().hex(), answer.hex) << "13-byte pieces, length " << answer.length;
    EXPECT_EQ(portable_sha256(data).hex(), answer.hex)
        << "portable kernel, length " << answer.length;
  }
}

TEST(Sha256, PortableAndX86KernelsAgree) {
  const detail::Sha256Compress x86 = detail::sha256_compress_x86_sha();
  if (x86 == nullptr) GTEST_SKIP() << "this CPU lacks the SHA extensions";
  Rng rng(13);
  for (std::size_t blocks = 1; blocks <= 17; ++blocks) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      // Misaligned starts too: the kernel reads its input unaligned.
      Bytes input(offset + blocks * 64);
      for (std::uint8_t& b : input) b = static_cast<std::uint8_t>(rng.next());
      std::array<std::uint32_t, 8> portable{};
      for (std::uint32_t& word : portable) word = static_cast<std::uint32_t>(rng.next());
      std::array<std::uint32_t, 8> hardware = portable;
      detail::sha256_compress_portable(portable.data(), input.data() + offset, blocks);
      x86(hardware.data(), input.data() + offset, blocks);
      EXPECT_EQ(portable, hardware) << blocks << " blocks at offset " << offset;
    }
  }
}

TEST(Sha256, Sha256dDiffersFromSingle) {
  const Bytes data = {1, 2, 3};
  EXPECT_NE(sha256d(data), sha256(BytesView(data.data(), data.size())));
}

TEST(Hash256, HexAndShortHex) {
  Hash256 h;
  h.bytes[0] = 0xab;
  h.bytes[1] = 0xcd;
  EXPECT_EQ(h.hex().substr(0, 4), "abcd");
  EXPECT_EQ(h.short_hex(), "abcd0000");
  EXPECT_FALSE(h.is_zero());
  EXPECT_TRUE(Hash256{}.is_zero());
}

// --- HMAC-SHA256 (RFC 4231) -------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string data = "Hi There";
  const Hash256 mac = hmac_sha256(BytesView(key.data(), key.size()),
                                  BytesView(reinterpret_cast<const std::uint8_t*>(data.data()),
                                            data.size()));
  EXPECT_EQ(mac.hex(), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const Hash256 mac =
      hmac_sha256(BytesView(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
                  BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(mac.hex(), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const Hash256 mac =
      hmac_sha256(BytesView(key.data(), key.size()), BytesView(data.data(), data.size()));
  EXPECT_EQ(mac.hex(), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Hash256 mac =
      hmac_sha256(BytesView(key.data(), key.size()),
                  BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(mac.hex(), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, ConstantTimeEqual) {
  const Bytes a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4}, d{1, 2};
  EXPECT_TRUE(constant_time_equal(BytesView(a.data(), a.size()), BytesView(b.data(), b.size())));
  EXPECT_FALSE(constant_time_equal(BytesView(a.data(), a.size()), BytesView(c.data(), c.size())));
  EXPECT_FALSE(constant_time_equal(BytesView(a.data(), a.size()), BytesView(d.data(), d.size())));
}

// --- Merkle tree ---------------------------------------------------------------------

std::vector<Hash256> make_leaves(std::size_t n, std::uint64_t seed = 0) {
  std::vector<Hash256> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(sha256("leaf-" + std::to_string(seed) + "-" + std::to_string(i)));
  }
  return leaves;
}

TEST(Merkle, EmptyTreeHasStableRoot) {
  MerkleTree a({}), b({});
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, SingleLeafProofVerifies) {
  const auto leaves = make_leaves(1);
  MerkleTree tree(leaves);
  EXPECT_TRUE(MerkleTree::verify(leaves[0], tree.prove(0), tree.root()));
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto leaves = make_leaves(8);
  const Hash256 original = MerkleTree::compute_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i].bytes[0] ^= 0x01;
    EXPECT_NE(MerkleTree::compute_root(mutated), original) << "leaf " << i;
  }
}

TEST(Merkle, RootDependsOnOrder) {
  auto leaves = make_leaves(4);
  auto swapped = leaves;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(MerkleTree::compute_root(leaves), MerkleTree::compute_root(swapped));
}

TEST(Merkle, ProofFailsForWrongLeaf) {
  const auto leaves = make_leaves(6);
  MerkleTree tree(leaves);
  const MerkleProof proof = tree.prove(2);
  EXPECT_TRUE(MerkleTree::verify(leaves[2], proof, tree.root()));
  EXPECT_FALSE(MerkleTree::verify(leaves[3], proof, tree.root()));
}

TEST(Merkle, ProofFailsForTamperedStep) {
  const auto leaves = make_leaves(6);
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(4);
  proof[0].sibling.bytes[5] ^= 0xff;
  EXPECT_FALSE(MerkleTree::verify(leaves[4], proof, tree.root()));
}

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllProofsVerify) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n, n);
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(MerkleTree::verify(leaves[i], tree.prove(i), tree.root())) << "leaf " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100));

// --- addresses --------------------------------------------------------------------------

TEST(Address, DeterministicPerNode) {
  EXPECT_EQ(address_for_node(NodeId{1}), address_for_node(NodeId{1}));
  EXPECT_NE(address_for_node(NodeId{1}), address_for_node(NodeId{2}));
}

TEST(Address, HexIs40Chars) { EXPECT_EQ(address_for_node(NodeId{9}).hex().size(), 40u); }

// --- pairwise tags -----------------------------------------------------------------------

TEST(Authenticator, DirectionalityMatters) {
  // The session key is symmetric, yet the tag binds the sender: A->B and
  // B->A tags over the same payload differ.
  KeyRegistry keys(77);
  ASSERT_EQ(keys.session_key(NodeId{1}, NodeId{2}), keys.session_key(NodeId{2}, NodeId{1}));
  const Bytes payload = {5, 5};
  const std::array<BytesView, 1> parts{BytesView(payload.data(), payload.size())};
  EXPECT_NE(keys.tag(NodeId{1}, NodeId{2}, parts), keys.tag(NodeId{2}, NodeId{1}, parts));
}

TEST(Authenticator, SessionKeySymmetric) {
  KeyRegistry keys(123);
  EXPECT_EQ(keys.session_key(NodeId{3}, NodeId{9}), keys.session_key(NodeId{9}, NodeId{3}));
}

TEST(Authenticator, DifferentRegistrySeedsProduceDifferentKeys) {
  KeyRegistry a(1), b(2);
  EXPECT_NE(a.identity_key(NodeId{1}), b.identity_key(NodeId{1}));
}

// --- HmacKey precomputed context --------------------------------------------------

// The context must be bit-identical to the one-shot function on the RFC 4231
// vectors (including the >block-size key, which exercises the key-hashing
// path in the pad precomputation).
TEST(HmacKey, MatchesOneShotOnRfc4231Vectors) {
  struct Vector {
    Bytes key;
    Bytes data;
  };
  const std::string jefe = "Jefe";
  const std::string nothing = "what do ya want for nothing?";
  const std::string long_key_data = "Test Using Larger Than Block-Size Key - Hash Key First";
  std::vector<Vector> vectors;
  vectors.push_back({Bytes(20, 0x0b), Bytes{'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'}});
  vectors.push_back({Bytes(jefe.begin(), jefe.end()), Bytes(nothing.begin(), nothing.end())});
  vectors.push_back({Bytes(20, 0xaa), Bytes(50, 0xdd)});
  vectors.push_back({Bytes(131, 0xaa), Bytes(long_key_data.begin(), long_key_data.end())});
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const BytesView key(vectors[i].key.data(), vectors[i].key.size());
    const BytesView data(vectors[i].data.data(), vectors[i].data.size());
    EXPECT_EQ(HmacKey(key).mac(data), hmac_sha256(key, data)) << "vector " << i;
  }
}

TEST(HmacKey, MatchesOneShotAcrossKeyAndDataSizes) {
  // Key lengths straddling the SHA-256 block size (64) and data lengths
  // straddling its padding boundaries.
  for (const std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 131u}) {
    const Bytes key(key_len, static_cast<std::uint8_t>(0x42 + key_len));
    const HmacKey ctx(BytesView(key.data(), key.size()));
    for (const std::size_t data_len : {0u, 1u, 55u, 56u, 64u, 65u, 300u}) {
      const Bytes data(data_len, static_cast<std::uint8_t>(data_len));
      const BytesView view(data.data(), data.size());
      EXPECT_EQ(ctx.mac(view), hmac_sha256(BytesView(key.data(), key.size()), view))
          << "key " << key_len << " data " << data_len;
    }
  }
}

TEST(HmacKey, ContextIsReusable) {
  // mac() clones the pad mid-states; the context itself never mutates, so
  // repeated calls (the whole point of the precomputation) stay identical.
  const Bytes key(32, 0x7f);
  const HmacKey ctx(BytesView(key.data(), key.size()));
  const Bytes data{1, 2, 3, 4};
  const Hash256 first = ctx.mac(BytesView(data.data(), data.size()));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ctx.mac(BytesView(data.data(), data.size())), first);
  }
}

TEST(HmacKey, PartsStreamEqualsConcatenation) {
  const Bytes key(32, 0x11);
  const HmacKey ctx(BytesView(key.data(), key.size()));
  Bytes whole;
  for (std::size_t i = 0; i < 200; ++i) whole.push_back(static_cast<std::uint8_t>(i * 7));
  const Hash256 expected = ctx.mac(BytesView(whole.data(), whole.size()));
  for (const std::size_t split : {0u, 1u, 63u, 64u, 100u, 199u, 200u}) {
    const std::array<BytesView, 2> parts{BytesView(whole.data(), split),
                                         BytesView(whole.data() + split, whole.size() - split)};
    EXPECT_EQ(ctx.mac(std::span<const BytesView>(parts.data(), parts.size())), expected)
        << "split " << split;
  }
  // Degenerate streams: empty parts interleaved must not change the digest.
  const std::array<BytesView, 4> padded{BytesView(), BytesView(whole.data(), whole.size()),
                                        BytesView(), BytesView()};
  EXPECT_EQ(ctx.mac(std::span<const BytesView>(padded.data(), padded.size())), expected);
}

// --- streamed tag vs historical materialized input ----------------------------------

TEST(Authenticator, StreamedTagMatchesMaterializedInput) {
  // The seal hot path streams u64(sender) || varint(len) || payload into
  // the HMAC. This pins bit-compatibility against the historical code that
  // materialized that exact buffer per receiver — the goldens depend on it.
  KeyRegistry keys(2024);
  const NodeId sender{3};
  const NodeId receiver{11};
  for (const std::size_t len : {0u, 1u, 0x7fu, 0x80u, 300u}) {  // varint width changes at 0x80
    Bytes payload(len);
    for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::uint8_t>(i ^ len);

    Bytes materialized;
    std::uint64_t sender_le = sender.value;
    for (int i = 0; i < 8; ++i) {
      materialized.push_back(static_cast<std::uint8_t>(sender_le & 0xffu));
      sender_le >>= 8;
    }
    std::uint64_t v = len;
    while (v >= 0x80) {
      materialized.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    materialized.push_back(static_cast<std::uint8_t>(v));
    materialized.insert(materialized.end(), payload.begin(), payload.end());

    const Hash256 reference = hmac_sha256(keys.session_key(sender, receiver).view(),
                                          BytesView(materialized.data(), materialized.size()));
    const std::array<BytesView, 1> parts{BytesView(payload.data(), payload.size())};
    const auto tag = keys.tag(sender, receiver, std::span<const BytesView>(parts.data(), 1));
    EXPECT_TRUE(std::equal(tag.begin(), tag.end(), reference.bytes.begin())) << "len " << len;
  }
}

TEST(Authenticator, LinkWithAnIdBeyond32BitsKeepsItsOwnKey) {
  // The session cache packs (lower id << 32) | higher id; a higher id of
  // 2^32 + 2 would pack like 2, so such a link must not reuse the cached
  // key of link {1, 2}.
  KeyRegistry keys(77);
  const Bytes body{1, 2, 3};
  const std::array<BytesView, 1> parts{BytesView(body.data(), body.size())};
  const NodeId one{1};
  const NodeId far{(std::uint64_t{1} << 32) + 2};
  const auto near_tag = keys.tag(one, NodeId{2}, std::span<const BytesView>(parts.data(), 1));
  const auto far_tag = keys.tag(one, far, std::span<const BytesView>(parts.data(), 1));
  EXPECT_NE(near_tag, far_tag);

  const Bytes materialized{1, 0, 0, 0, 0, 0, 0, 0, 3, 1, 2, 3};  // u64(sender), varint(3), body
  const Hash256 reference = hmac_sha256(keys.session_key(one, far).view(),
                                        BytesView(materialized.data(), materialized.size()));
  EXPECT_TRUE(std::equal(far_tag.begin(), far_tag.end(), reference.bytes.begin()));
}

TEST(Authenticator, MultiPartTagEqualsSinglePartTag) {
  KeyRegistry keys(55);
  Bytes body(96);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i);
  const std::array<BytesView, 1> one{BytesView(body.data(), body.size())};
  const auto whole = keys.tag(NodeId{1}, NodeId{2}, std::span<const BytesView>(one.data(), 1));
  const std::array<BytesView, 3> three{BytesView(body.data(), 10), BytesView(body.data() + 10, 50),
                                       BytesView(body.data() + 60, 36)};
  const auto split = keys.tag(NodeId{1}, NodeId{2}, std::span<const BytesView>(three.data(), 3));
  EXPECT_EQ(whole, split);
}

TEST(AuthenticatorDeathTest, TagAbortsOnMoreThanSevenParts) {
  // tag() streams the parts through a fixed array behind its own prefix;
  // an eighth part must abort rather than write past it.
  KeyRegistry keys(55);
  const Bytes body(8, 0x5a);
  std::array<BytesView, 8> eight;
  for (std::size_t i = 0; i < eight.size(); ++i) eight[i] = BytesView(body.data() + i, 1);
  EXPECT_DEATH(static_cast<void>(keys.tag(NodeId{1}, NodeId{2}, eight)), "8 payload parts");
}

// --- registry cache --------------------------------------------------------------------

TEST(Authenticator, RegistryIsIndependentOfDerivationOrder) {
  // Cache contents are pure functions of the seed. Derive the same 2,080
  // links in opposite orders on two registries (enough inserts to rehash
  // the cache many times over); every tag, in both directions, must agree.
  std::vector<std::pair<NodeId, NodeId>> links;
  for (std::uint64_t a = 1; a <= 65; ++a) {
    for (std::uint64_t b = a + 1; b <= 65; ++b) links.emplace_back(NodeId{a}, NodeId{b});
  }
  ASSERT_EQ(links.size(), 2080u);
  const Bytes payload = {1, 2, 3, 4, 5};
  const std::array<BytesView, 1> parts{BytesView(payload.data(), payload.size())};
  using TagPair = std::pair<std::array<std::uint8_t, 8>, std::array<std::uint8_t, 8>>;
  const auto tags = [&](const KeyRegistry& keys, std::size_t i) {
    const auto [a, b] = links[i];
    return TagPair{keys.tag(a, b, parts), keys.tag(b, a, parts)};
  };
  const KeyRegistry forward(909);
  const KeyRegistry reverse(909);
  std::vector<TagPair> forward_tags(links.size());
  std::vector<TagPair> reverse_tags(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) forward_tags[i] = tags(forward, i);
  for (std::size_t i = links.size(); i-- > 0;) reverse_tags[i] = tags(reverse, i);
  EXPECT_EQ(forward_tags, reverse_tags);
}

}  // namespace
}  // namespace gpbft::crypto
